//! The decentralized middleware replica `M^k` running SRCA-Rep (Fig. 4 of
//! the paper), including adjustments 1–3 of §4:
//!
//! - **Adjustment 1**: local validation checks only the local
//!   `tocommit_queue` (the database already validated against everything
//!   that committed);
//! - **Adjustment 2**: writesets are applied and committed *concurrently*
//!   when they don't conflict with anything earlier in the queue — this is
//!   what removes the middleware/database "hidden deadlock" of §4.2;
//! - **Adjustment 3**: start/commit synchronization via the
//!   [`HoleTracker`], which restores 1-copy-SI. Running in
//!   [`ReplicationMode::SrcaOpt`] skips adjustment 3 — that is the SRCA-Opt
//!   ablation of Fig. 7, which trades 1-copy-SI for throughput under
//!   update-intensive load.
//!
//! ## Thread structure (per replica)
//!
//! - any number of **client session threads** execute SQL statements against
//!   the local database and, at commit, run local validation and multicast
//!   the writeset (steps I.1–I.2);
//! - one **delivery thread** (`sirep-deliver-<k>`) reads the total-order
//!   stream — over TCP straight off the member socket, so the kernel's
//!   buffer and the sequencer's cursor are the only receive queue — and runs
//!   global validation deterministically (step II);
//! - a small pool of **applier threads** (`sirep-apply-<k>-<i>`) implements
//!   step III for REMOTE writesets: picking queue entries with no
//!   conflicting predecessor, applying them (with deadlock retry), and
//!   committing under the hole rule. Local transactions never wait for an
//!   applier: on successful validation the delivery thread hands them back
//!   to their session thread, which commits immediately (adjustment 2).
//!   The delivery thread applies a remote writeset itself when nothing can
//!   make it wait, probing its tuple locks instead of waiting for them: the
//!   validator never blocks in the database (§4.2).
//!
//! A thread is woken only when there is work for it. An uncontended commit
//! costs its origin five wake-ups (the session thread once per driver round
//! trip — three —, the delivery thread for the writeset coming back, the
//! session thread for the verdict) and each remote one (the delivery
//! thread), or two when it must leave the apply to an applier.
//!
//! ## Lock structure (per replica)
//!
//! One lock, the paper's `wsmutex` (`state`, `node-state` in lint.toml),
//! guards all protocol state: ws_list, hole tracker, tocommit queue,
//! pending local transactions, outcomes, view, and off the hot paths the
//! recovery markers and the progress-advert cursor. Certification, begins,
//! queue pushes, claims and removes, and the commit step (atomic with
//! begins) run under it. Database work (reads, writes, writeset
//! application, the commit log force) happens outside it. An update commit
//! takes it five times at its origin (begin, local validation, delivery,
//! commit, end of the local) and twice at a remote (delivery, commit), or
//! three times when an applier has to claim it.
//!
//! Two condvars pair with it, so a wake-up reaches only the kind of thread
//! that has work:
//!
//! - an *applier* parks on `apply_cond`, counted in `NodeState::idle`, and
//!   one is woken (`notify_one`) when the ready set grew
//!   (`TocommitQueue::push` / `remove` / `unclaim` say so) while one is
//!   idle. One is enough: a claim sweeps everything ready, and one that
//!   leaves entries behind wakes the next applier. A local entry is born
//!   `running`: its commit wakes no applier;
//! - *everyone else* — a hole-gated begin, a hole-throttled
//!   `finalize_batch`, `inquire`, `await_own_join`, a recovery awaiting its
//!   marker — parks on `cond`, counted in `NodeState::waiters`, and is
//!   notified (all of them: they wait for different things) only if that is
//!   non-zero, which it rarely is.
//!
//! Both counts are plain fields: written by the one wait helper of their
//! condvar, read by [`ReplicaNode::unlock_and_wake`] under the lock held
//! for the state change anyway — a waiter either sees the change or is
//! counted. `mark_crashed` wakes everybody; `WAIT_TICK` is a shutdown poll
//! and must never be what makes progress.

use crate::audit::{key_digest, Auditor};
use crate::chaos::{CrashPlan, PausePoint};
use crate::holes::HoleTracker;
use crate::msg::{Outcome, ReplMsg, WsMsg, XactId};
use crate::recorder::Recorder;
use crate::validation::WsList;
use parking_lot::{Condvar, Mutex, MutexGuard};
use sirep_common::{
    AbortReason, CrashPoint, DbError, EventKind, GaugeSnapshot, GlobalTid, Journal, MemberId,
    Metrics, ProtocolGauges, ReplicaId, Stage, StageSnapshot, TransportSnapshot,
};
use sirep_gcs::{Cast, Delivery, GcsError, Member, View};
use sirep_storage::{Database, TupleId, TxnHandle, WriteSet};
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which variant of the protocol a cluster runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicationMode {
    /// Full SRCA-Rep: adjustments 1+2+3; provides 1-copy-SI.
    SrcaRep,
    /// SRCA-Opt: adjustments 1+2 only; no hole synchronization. Each
    /// replica is locally SI but 1-copy-SI may be violated (§4.3.2).
    SrcaOpt,
}

/// How long waiters poll for shutdown while blocked on a node condvar.
pub const WAIT_TICK: Duration = Duration::from_millis(25);

/// How long a begin waits for a still-replaying replica to reach its own
/// join view before the client is told to go elsewhere.
const JOIN_DEADLINE: Duration = Duration::from_secs(60);

/// How long [`ReplicaNode::inquire`] waits before answering
/// [`InDoubt::Unknown`] — well past the failure detector's "couple of
/// seconds" (§5.2), after which the driver asks another survivor.
pub const INQUIRE_DEADLINE: Duration = Duration::from_secs(5);

/// Most tocommit entries one applier claims per group commit. Bounds the
/// size of the shared engine transaction (and the latency of the single
/// log force) without limiting throughput — whatever is left stays ready
/// for the next applier.
const APPLIER_BATCH_MAX: usize = 64;

/// An entry of `tocommit_queue_k`.
pub struct QEntry {
    pub tid: GlobalTid,
    xact: XactId,
    ws: Arc<WriteSet>,
    origin: ReplicaId,
    /// A thread has claimed this entry (is applying / committing it).
    running: bool,
    /// Conflict edges to entries with smaller tids still in the queue —
    /// one per (predecessor, shared key) pair. The entry is eligible for
    /// an applier exactly when this reaches zero; [`TocommitQueue::remove`]
    /// decrements it as predecessors commit.
    blockers: usize,
    /// Journal stamp of the entry's delivery, where its `validate_queue`
    /// stage starts (unused for a running local entry).
    last_ns: u64,
}

impl QEntry {
    /// An entry as delivery queues it; `running`: its session thread commits
    /// it, no applier may claim it.
    pub fn new(
        tid: GlobalTid,
        xact: XactId,
        ws: Arc<WriteSet>,
        origin: ReplicaId,
        running: bool,
    ) -> QEntry {
        QEntry { tid, xact, ws, origin, running, blockers: 0, last_ns: 0 }
    }
}

/// A validated transaction on its way to commit: one entry of an applier's
/// group commit, or a local transaction, which commits as a batch of one.
struct BatchItem {
    tid: GlobalTid,
    xact: XactId,
    ws: Arc<WriteSet>,
    /// Journal stamp of the entry's last stage boundary.
    last_ns: u64,
    /// `Some`: a local transaction's begin stamp, where its `total` starts
    /// (its begin is recorded). `None`: a remote writeset, which begins
    /// here at its commit.
    begin_ns: Option<u64>,
}

impl BatchItem {
    fn of(e: &QEntry) -> BatchItem {
        BatchItem {
            tid: e.tid,
            xact: e.xact,
            ws: Arc::clone(&e.ws),
            last_ns: e.last_ns,
            begin_ns: None,
        }
    }
}

/// The `tocommit` queue with incremental conflict scheduling.
///
/// The paper's adjustment 2 lets any queued writeset with no conflicting
/// predecessor proceed. Re-deriving eligibility with a pairwise scan
/// (`find_eligible`) is O(n²·|ws|) under the node lock on every applier
/// wakeup; this structure keeps eligibility incrementally instead:
///
/// - [`TocommitQueue::push`] charges the new entry one *blocker* per
///   (predecessor, shared key) edge, read off a per-key waiter index —
///   O(|ws| + edges);
/// - [`TocommitQueue::remove`] (called as entries commit) walks the removed
///   entry's keys, decrements each successor edge once, and moves entries
///   whose count hits zero onto the ready set — O(|ws| + edges);
/// - appliers pop the smallest-tid ready entry in O(log n), the same entry
///   the old scan would have picked first, so hole dynamics are unchanged.
///
/// The waiter index doubles as the adjustment-1 local validation test:
/// a candidate writeset conflicts with the queue iff one of its keys has a
/// non-empty waiter list — O(|ws|) instead of O(n·|ws|).
#[derive(Default)]
pub struct TocommitQueue {
    entries: HashMap<GlobalTid, QEntry>,
    /// Tuple id → tids of queue entries writing it, ascending (entries are
    /// pushed in tid order; the list's prefix before an entry are its
    /// predecessors on that key, the suffix its successors).
    waiters: HashMap<TupleId, Vec<GlobalTid>>,
    /// Zero-blocker, not-yet-running entries; appliers pop the smallest.
    ready: BTreeSet<GlobalTid>,
    /// Entries currently marked running.
    running: usize,
}

impl TocommitQueue {
    fn len(&self) -> usize {
        self.entries.len()
    }

    /// Queued writesets not yet picked by an applier (the
    /// `applier_backlog` gauge).
    #[cfg(feature = "trace")]
    fn backlog(&self) -> usize {
        self.entries.len() - self.running
    }

    /// Eligible-but-unclaimed entries (the `ready_len` gauge).
    #[cfg(feature = "trace")]
    fn ready_len(&self) -> usize {
        self.ready.len()
    }

    fn iter(&self) -> impl Iterator<Item = &QEntry> {
        self.entries.values()
    }

    /// Is `xact` still queued here — validated (its outcome known) but not
    /// yet committed locally? Claimed entries stay in the queue until
    /// `finalize_batch` removes them, so this covers the whole
    /// in-flight window. O(n) scan, but only called on the rare
    /// failover-inquire path.
    fn contains_xact(&self, xact: XactId) -> bool {
        self.entries.values().any(|e| e.xact == xact)
    }

    /// Adjustment-1 local validation: does `ws` conflict with any queued
    /// entry? O(|ws|) probes of the waiter index.
    fn conflicts(&self, ws: &WriteSet) -> bool {
        ws.tuple_ids().any(|id| self.waiters.get(id).is_some_and(|l| !l.is_empty()))
    }

    /// Insert a validated entry. Must be called in tid order (total-order
    /// delivery / sorted bootstrap), so every current waiter on the entry's
    /// keys is a predecessor. `true`: the entry is ready for an applier.
    pub fn push(&mut self, mut e: QEntry) -> bool {
        let mut blockers = 0;
        for id in e.ws.tuple_ids() {
            let list = self.waiters.entry(id.clone()).or_default();
            debug_assert!(list.last().is_none_or(|&t| t < e.tid), "push out of tid order");
            blockers += list.len();
            list.push(e.tid);
        }
        e.blockers = blockers;
        let ready = !e.running && blockers == 0;
        if e.running {
            self.running += 1;
        } else if ready {
            self.ready.insert(e.tid);
        }
        let prev = self.entries.insert(e.tid, e);
        debug_assert!(prev.is_none(), "tid queued twice");
        ready
    }

    /// Claim the smallest-tid eligible entry for an applier, marking it
    /// running.
    pub fn pop_ready(&mut self) -> Option<&QEntry> {
        let tid = self.ready.pop_first()?;
        // sirep-lint: allow(no-unwrap-on-protocol-paths): ready ⊆ entries is the queue's structural invariant (every insert/remove maintains it); a miss is a corrupted queue, not a runtime condition
        let e = self.entries.get_mut(&tid).expect("ready tid must be queued");
        debug_assert!(!e.running && e.blockers == 0);
        e.running = true;
        self.running += 1;
        Some(e)
    }

    /// Give back a claimed entry; its `validate_queue` restarts at `last_ns`.
    pub fn unclaim(&mut self, tid: GlobalTid, last_ns: u64) {
        let Some(e) = self.entries.get_mut(&tid) else { return };
        e.running = false;
        e.last_ns = last_ns;
        self.running -= 1;
        self.ready.insert(tid);
    }

    /// Remove a committed (or discarded) entry, releasing its successors'
    /// blocker edges; newly eligible entries move onto the ready set.
    /// Returns how many did.
    pub fn remove(&mut self, tid: GlobalTid) -> usize {
        let Some(e) = self.entries.remove(&tid) else { return 0 };
        let mut released = 0;
        if e.running {
            self.running -= 1;
        } else {
            self.ready.remove(&tid);
        }
        for id in e.ws.tuple_ids() {
            let Some(list) = self.waiters.get_mut(id) else { continue };
            if let Some(pos) = list.iter().position(|&t| t == tid) {
                list.remove(pos);
                // sirep-lint: allow(no-unwrap-on-protocol-paths): pos came from position() on this very list — in range by construction
                for &succ in &list[pos..] {
                    let s = self.entries.get_mut(&succ).expect("waiter must be queued"); // sirep-lint: allow(no-unwrap-on-protocol-paths): waiter lists only hold queued tids (the queue's structural invariant)
                    s.blockers -= 1;
                    if s.blockers == 0 && !s.running {
                        self.ready.insert(succ);
                        released += 1;
                    }
                }
            }
            if list.is_empty() {
                self.waiters.remove(id);
            }
        }
        released
    }
}

/// A local transaction that has been multicast and awaits its fate. On
/// successful global validation the delivery thread hands the transaction
/// *back* to the waiting session thread, which performs the commit itself —
/// the paper's adjustment 2: a validated local transaction "can commit
/// immediately", without queueing behind the appliers (routing local
/// commits through the applier pool can starve them when every applier is
/// blocked inside the database on a local's tuple lock — a reincarnation of
/// the §4.2 hidden deadlock).
struct PendingLocal {
    txn: TxnHandle,
    responder: SyncSender<Result<LocalCommitJob, DbError>>,
    /// Keeps the transaction in the hole tracker's set B until it no
    /// longer holds database locks.
    guard: LocalGuard,
    /// Journal stamp of the writeset's extraction, where `gcs_deliver`
    /// starts.
    last_ns: u64,
}

/// Handed from the delivery thread back to the session thread on
/// successful validation: everything needed to run the commit step.
struct LocalCommitJob {
    tid: GlobalTid,
    txn: TxnHandle,
    _guard: LocalGuard,
    /// Journal stamp of the delivery, where `validate_queue` starts.
    last_ns: u64,
}

/// RAII membership in the hole tracker's set B (running local
/// transactions). Dropped when the local transaction terminates — whether
/// by commit, validation failure, rollback, statement abort or session
/// drop — so the count can never leak.
pub struct LocalGuard {
    node: Arc<ReplicaNode>,
}

impl Drop for LocalGuard {
    fn drop(&mut self) {
        let mut st = self.node.state.lock();
        st.holes.local_finished();
        self.node.unlock_and_wake(st, false);
    }
}

/// Bounded log of transaction outcomes for in-doubt resolution (§5.4).
/// Cloned wholesale during recovery state transfer so a recovered replica
/// can (a) answer in-doubt inquiries about pre-recovery transactions and
/// (b) recognize — and skip — buffered deliveries that are already covered
/// by the transferred state.
#[derive(Clone)]
struct OutcomeLog {
    map: HashMap<XactId, Outcome>,
    order: VecDeque<XactId>,
    cap: usize,
}

impl OutcomeLog {
    fn new(cap: usize) -> OutcomeLog {
        OutcomeLog { map: HashMap::new(), order: VecDeque::new(), cap }
    }

    fn record(&mut self, xact: XactId, outcome: Outcome) {
        if self.map.insert(xact, outcome).is_none() {
            self.order.push_back(xact);
            if self.order.len() > self.cap {
                if let Some(old) = self.order.pop_front() {
                    self.map.remove(&old);
                }
            }
        }
    }

    fn get(&self, xact: XactId) -> Option<Outcome> {
        self.map.get(&xact).copied()
    }
}

/// A point-in-time snapshot of a replica's protocol state.
#[derive(Debug, Clone)]
pub struct NodeStatus {
    pub replica: ReplicaId,
    pub alive: bool,
    /// `lastvalidated_tid` — how far certification has progressed here.
    pub last_validated: GlobalTid,
    /// Validated writesets not yet committed at this replica.
    pub queued: usize,
    /// Local transactions awaiting their validation outcome.
    pub pending_local: usize,
    /// Whether the commit order currently has holes (adjustment 3 gates
    /// new local begins while true).
    pub holes_open: bool,
    pub running_locals: usize,
    pub waiting_to_start: usize,
    /// Live replicas as processed by this node's delivery thread.
    pub view: Vec<ReplicaId>,
    /// Snapshot of this replica's protocol event counters.
    pub metrics: Metrics,
    /// Snapshot of this replica's per-stage latency histograms, from its
    /// journal (empty when the `trace` feature is disabled).
    pub stages: StageSnapshot,
    /// Queue-depth gauges with high-water marks (zeros when the `trace`
    /// feature is disabled).
    pub gauges: GaugeSnapshot,
    /// Wire-level counters of this replica's GCS endpoint (empty on the
    /// sim transport, which has no wire).
    pub transport: TransportSnapshot,
}

impl NodeStatus {
    /// A coarse load figure for balancing decisions: work queued or in
    /// flight at this replica.
    pub fn load(&self) -> usize {
        self.queued + self.pending_local + self.running_locals
    }
}

/// Telemetry wire form: fixed field order, `usize` counters as `u64`.
/// Scraped by the per-process telemetry service and merged by the
/// multinode `report` role.
impl sirep_common::wire::Wire for NodeStatus {
    fn encode(&self, out: &mut Vec<u8>) {
        self.replica.encode(out);
        self.alive.encode(out);
        self.last_validated.encode(out);
        (self.queued as u64).encode(out);
        (self.pending_local as u64).encode(out);
        self.holes_open.encode(out);
        (self.running_locals as u64).encode(out);
        (self.waiting_to_start as u64).encode(out);
        self.view.encode(out);
        self.metrics.encode(out);
        self.stages.encode(out);
        self.gauges.encode(out);
        self.transport.encode(out);
    }

    fn decode(
        r: &mut sirep_common::wire::WireReader<'_>,
    ) -> Result<Self, sirep_common::wire::WireError> {
        Ok(NodeStatus {
            replica: ReplicaId::decode(r)?,
            alive: bool::decode(r)?,
            last_validated: GlobalTid::decode(r)?,
            queued: u64::decode(r)? as usize,
            pending_local: u64::decode(r)? as usize,
            holes_open: bool::decode(r)?,
            running_locals: u64::decode(r)? as usize,
            waiting_to_start: u64::decode(r)? as usize,
            view: Vec::decode(r)?,
            metrics: Metrics::decode(r)?,
            stages: StageSnapshot::decode(r)?,
            gauges: GaugeSnapshot::decode(r)?,
            transport: TransportSnapshot::decode(r)?,
        })
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
    /// This replica could say neither within [`INQUIRE_DEADLINE`] (no
    /// writeset yet and the origin's incarnation not seen to depart, or a
    /// committed writeset not yet applied here): ask another survivor.
    Unknown,
}

impl sirep_common::wire::Wire for InDoubt {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            InDoubt::Known(outcome) => {
                out.push(0);
                outcome.encode(out);
            }
            InDoubt::NeverReceived => out.push(1),
            InDoubt::Unknown => out.push(2),
        }
    }
    fn decode(
        r: &mut sirep_common::wire::WireReader<'_>,
    ) -> Result<Self, sirep_common::wire::WireError> {
        Ok(match u8::decode(r)? {
            0 => InDoubt::Known(Outcome::decode(r)?),
            1 => InDoubt::NeverReceived,
            2 => InDoubt::Unknown,
            _ => return Err(sirep_common::wire::WireError::Corrupt("in-doubt tag")),
        })
    }
}

/// The replica's protocol state — everything the paper's `wsmutex` keeps
/// atomic with local transaction begins and commits. Guarded by the node's
/// one lock (`node-state` in lint.toml).
struct NodeState {
    wslist: WsList,
    holes: HoleTracker,
    queue: TocommitQueue,
    pending_local: HashMap<XactId, PendingLocal>,
    outcomes: OutcomeLog,
    /// The last view the delivery thread processed (so in-doubt inquiries
    /// see exactly the §5.4 guarantee); its member ids are the live
    /// `(replica, incarnation)`s.
    membership: View,
    /// The replicas of `membership`, sorted — what pruning iterates.
    view: Vec<ReplicaId>,
    /// Incarnations whose departure this node has processed: in one view,
    /// not in the next. By uniform delivery, every writeset a departed
    /// incarnation multicast is already in `outcomes` — so its in-doubt
    /// transaction with no outcome was never received, full stop.
    departed: HashSet<MemberId>,
    /// Recovery markers processed (see [`ReplMsg::Marker`]).
    markers_seen: HashSet<u64>,
    /// The `lastvalidated` this node last advertised when idle.
    last_progress_sent: GlobalTid,
    /// Threads parked on `cond` right now ([`ReplicaNode::wait_state`]).
    waiters: usize,
    /// Appliers parked on `apply_cond` right now
    /// ([`ReplicaNode::wait_apply`]).
    idle: usize,
}

impl NodeState {
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
}

/// One middleware/database replica pair.
pub struct ReplicaNode {
    id: ReplicaId,
    db: Database,
    gcs: Box<dyn Cast<ReplMsg>>,
    mode: ReplicationMode,
    state: Mutex<NodeState>,
    cond: Condvar,
    apply_cond: Condvar,
    shutdown: AtomicBool,
    /// Set once the delivery thread has installed a view naming this node's
    /// own member id. On a transport that replays history to joiners that
    /// is where the node has caught up with everything sequenced before
    /// its join; a transaction begun earlier would certify against a
    /// `lastvalidated` below the group's prune watermark.
    joined: AtomicBool,
    /// Starts at this member's incarnation base, so every `XactId` assigned
    /// here names the incarnation it was created under.
    next_xact: AtomicU64,
    pub metrics: Arc<Metrics>,
    pub recorder: Arc<Recorder>,
    /// Protocol event journal for this replica, and the clock its stage
    /// latencies are measured on (no-op without `trace`).
    pub journal: Journal,
    /// Queue-depth gauges, refreshed at mutation sites under the lock
    /// (no-op without `trace`).
    pub gauges: ProtocolGauges,
    /// Cluster-wide 1-copy-SI auditor. Every protocol transition is
    /// reported through `auditor.report(&journal, ..)` — one call that
    /// checks the event and appends it to the journal ring — under the
    /// state lock (the auditor's own lock is a strict leaf).
    auditor: Arc<Auditor>,
    /// Armed crash-points shared across the cluster (chaos harness).
    crash_plan: Arc<CrashPlan>,
}

/// State transferred from a donor replica during online recovery.
pub(crate) struct Bootstrap {
    pub wslist: WsList,
    pub queue_entries: Vec<(GlobalTid, XactId, Arc<WriteSet>, ReplicaId)>,
    outcomes: OutcomeLog,
    /// Highest tid whose effects are contained in the transferred database
    /// state (modulo the copied queue entries, which are still pending).
    pub max_committed: GlobalTid,
    membership: View,
    departed: HashSet<MemberId>,
}

/// An active local transaction bound to a session.
pub struct ActiveTxn {
    pub xact: XactId,
    pub txn: TxnHandle,
    /// The commit watermark at begin time — the snapshot this transaction
    /// reads. Journaled (and audited) when the transaction turns out to be
    /// read-only and commits without certification.
    snapshot: GlobalTid,
    guard: LocalGuard,
    /// Journal stamp where the transaction began (its `total` starts).
    begin_ns: u64,
    /// Journal stamp of its last stage boundary (`TxBegin`).
    last_ns: u64,
}

impl ReplicaNode {
    /// A node for the group member `gcs` multicasts as: that member id is
    /// the node's replica id and incarnation.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        db: Database,
        gcs: Box<dyn Cast<ReplMsg>>,
        mode: ReplicationMode,
        outcome_cap: usize,
        record_history: bool,
        bootstrap: Option<Bootstrap>,
        journal: Journal,
        auditor: Arc<Auditor>,
        crash_plan: Arc<CrashPlan>,
    ) -> Arc<ReplicaNode> {
        // A recovered replica's stream restarts from the transferred state.
        let recovered = bootstrap.is_some();
        let reset = bootstrap.as_ref().map(|b| EventKind::ReplicaReset {
            last_validated: b.wslist.last_tid(),
            max_committed: b.max_committed,
        });
        let state = match bootstrap {
            None => NodeState {
                wslist: WsList::new(),
                holes: HoleTracker::new(),
                queue: TocommitQueue::default(),
                pending_local: HashMap::new(),
                outcomes: OutcomeLog::new(outcome_cap),
                // The view must only ever reflect view changes this node's
                // delivery thread has actually processed. Seeding it with
                // the expected full membership would make the one-by-one
                // formation view changes look like departures, poisoning
                // `departed` with (replica, 0) entries that later turn
                // in-doubt inquiries into false `NeverReceived` answers —
                // a committed transaction reported to its client as lost.
                membership: View { id: 0, members: Vec::new() },
                view: Vec::new(),
                departed: HashSet::new(),
                markers_seen: HashSet::new(),
                last_progress_sent: GlobalTid::ZERO,
                waiters: 0,
                idle: 0,
            },
            Some(b) => {
                let holes = HoleTracker::bootstrap(
                    b.max_committed,
                    b.queue_entries.iter().map(|(tid, ..)| *tid),
                );
                // Transferred entries are pushed in tid order (the donor
                // sorts them) so the waiter index and blocker counts are
                // rebuilt exactly as delivery order would have built them.
                let mut queue = TocommitQueue::default();
                let now = journal.now_ns();
                for (tid, xact, ws, origin) in b.queue_entries {
                    queue
                        .push(QEntry { last_ns: now, ..QEntry::new(tid, xact, ws, origin, false) });
                }
                NodeState {
                    wslist: b.wslist,
                    holes,
                    queue,
                    pending_local: HashMap::new(),
                    outcomes: b.outcomes,
                    view: replicas_of(&b.membership),
                    membership: b.membership,
                    departed: b.departed,
                    markers_seen: HashSet::new(),
                    last_progress_sent: GlobalTid::ZERO,
                    waiters: 0,
                    idle: 0,
                }
            }
        };
        let member = gcs.id();
        let node = Arc::new(ReplicaNode {
            id: member.replica(),
            db,
            gcs,
            mode,
            state: Mutex::new(state),
            cond: Condvar::new(),
            apply_cond: Condvar::new(),
            shutdown: AtomicBool::new(false),
            // A donor's state already reflects the recovering node's join.
            joined: AtomicBool::new(recovered),
            next_xact: AtomicU64::new(XactId::seq_base(member.incarnation()) + 1),
            metrics: Arc::new(Metrics::new()),
            recorder: Arc::new(Recorder::new(record_history)),
            journal,
            gauges: ProtocolGauges::new(),
            auditor,
            crash_plan,
        });
        if let Some(reset) = reset {
            // First event of the new incarnation, before the caller starts
            // any thread that could report for it.
            let _st = node.state.lock();
            node.auditor.report(&node.journal, reset);
        }
        node
    }

    /// Park on `cond` for one [`WAIT_TICK`], counted in `waiters` meanwhile;
    /// the caller re-checks what it waits for (and `is_alive`) afterwards.
    fn wait_state(&self, st: &mut MutexGuard<'_, NodeState>) {
        st.waiters += 1;
        self.cond.wait_for(st, WAIT_TICK);
        st.waiters -= 1;
    }

    /// Park an applier on `apply_cond` for one [`WAIT_TICK`], counted in
    /// `idle` meanwhile.
    fn wait_apply(&self, st: &mut MutexGuard<'_, NodeState>) {
        st.idle += 1;
        self.apply_cond.wait_for(st, WAIT_TICK);
        st.idle -= 1;
    }

    /// Release the lock after a change somebody may be parked on `cond`
    /// for, and wake them all (they wait for different things) — if anybody
    /// is parked: mostly nobody is, and a notify is a system call. If the
    /// tocommit queue's ready set `grew` while an applier is idle, wake one.
    fn unlock_and_wake(&self, st: MutexGuard<'_, NodeState>, grew: bool) {
        let parked = st.waiters > 0;
        let applier = grew && st.idle > 0;
        drop(st);
        if parked {
            self.cond.notify_all();
        }
        if applier {
            self.apply_cond.notify_one();
        }
    }

    /// If `point` is armed for this replica, crash-stop here: record the
    /// firing, crash the GCS member (survivors get a view change, exactly
    /// as `Cluster::crash` orders it), then fail this node's clients. Must
    /// be called *without* the state lock held — `mark_crashed` takes it.
    fn crash_point(&self, point: CrashPoint) -> bool {
        if !self.crash_plan.fire(point, self.id) {
            return false;
        }
        // sirep-lint: allow(journal-gauge-under-lock): crash-stop record — mark_crashed below takes the state lock itself, so holding it here would self-deadlock; nothing races a replica that is about to die
        self.auditor.report(&self.journal, EventKind::CrashPointFired { point });
        self.gcs.crash_self();
        self.mark_crashed();
        true
    }

    /// Block while `point` is armed for this replica — the deterministic
    /// interleaving hook for counterexample-replay tests. Free when
    /// unarmed (one short mutex probe). Must be called *without* protocol
    /// locks held, so a parked thread cannot stall unrelated progress.
    fn pause_point(&self, point: PausePoint) {
        self.crash_plan.pause_at(point, self.id);
    }

    /// Recompute the gauges. Called at mutation sites under the lock, so
    /// refreshes stay ordered with the changes they observe; applier claims
    /// skip it (queue depth changes on push and remove). Compiles away
    /// without `trace`.
    fn refresh_gauges(&self, st: &NodeState) {
        #[cfg(feature = "trace")]
        {
            self.gauges.ws_list_len.set(st.wslist.len() as u64);
            self.gauges.open_holes.set(st.holes.open_holes() as u64);
            self.gauges.cert_index_keys.set(st.wslist.index_len() as u64);
            self.gauges.tocommit_depth.set(st.queue.len() as u64);
            self.gauges.applier_backlog.set(st.queue.backlog() as u64);
            self.gauges.ready_len.set(st.queue.ready_len() as u64);
        }
        #[cfg(not(feature = "trace"))]
        let _ = st;
    }

    pub fn id(&self) -> ReplicaId {
        self.id
    }

    /// The group member this node multicasts as: `id` plus its incarnation.
    pub fn member(&self) -> MemberId {
        self.gcs.id()
    }

    pub fn database(&self) -> &Database {
        &self.db
    }

    pub fn is_alive(&self) -> bool {
        !self.shutdown.load(Ordering::Acquire)
    }

    pub fn mode(&self) -> ReplicationMode {
        self.mode
    }

    /// Current number of queued (validated, uncommitted) writesets.
    pub fn queue_len(&self) -> usize {
        self.state.lock().queue.len()
    }

    /// A point-in-time snapshot of this replica's protocol state, for
    /// monitoring and load-balancing decisions.
    pub fn status(&self) -> NodeStatus {
        let st = self.state.lock();
        self.refresh_gauges(&st);
        NodeStatus {
            replica: self.id,
            alive: self.is_alive(),
            last_validated: st.wslist.last_tid(),
            queued: st.queue.len(),
            pending_local: st.pending_local.len(),
            holes_open: st.holes.holes_exist(),
            running_locals: st.holes.running_locals(),
            waiting_to_start: st.holes.waiting_to_start(),
            view: st.view.clone(),
            metrics: Metrics::clone(&self.metrics),
            stages: self.journal.stages(),
            gauges: self.gauges.snapshot(self.gcs.in_flight()),
            transport: self.gcs.transport(),
        }
    }

    /// Pending local transactions awaiting validation/commit.
    pub fn pending_len(&self) -> usize {
        self.state.lock().pending_local.len()
    }

    /// `lastvalidated_tid` at this replica.
    pub fn last_validated(&self) -> GlobalTid {
        self.state.lock().wslist.last_tid()
    }

    /// The live view as processed by this node's delivery thread.
    pub fn current_view(&self) -> Vec<ReplicaId> {
        self.state.lock().view.clone()
    }

    /// Block until this node's delivery thread has processed the recovery
    /// marker `token` (and therefore every message sequenced before it).
    pub(crate) fn wait_for_marker(&self, token: u64, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        let mut st = self.state.lock();
        while !st.markers_seen.remove(&token) {
            if !self.is_alive() || std::time::Instant::now() >= deadline {
                return false;
            }
            self.wait_state(&mut st);
        }
        true
    }

    /// Produce a consistent state transfer for a recovering replica (the
    /// paper's §8 "recovery without interrupting transaction processing"):
    /// a fork of this replica's committed database plus the protocol state
    /// needed to continue validation deterministically. The donor is
    /// latched (its state lock) only for the duration of the copy; other
    /// replicas are unaffected.
    ///
    /// Correctness: commits at this replica and queue pushes and removes
    /// happen under the lock, so while we hold it the forked database
    /// corresponds exactly to "all validated tids except those still in
    /// the queue". The recovering replica must have joined
    /// the group *before* this is taken; every writeset it then receives is
    /// either (a) recorded in the transferred outcome log — covered by the
    /// fork or the copied queue and skipped — or (b) new, and validated
    /// normally against the transferred ws_list.
    pub(crate) fn state_transfer(&self, cost: sirep_storage::CostModel) -> (Database, Bootstrap) {
        let st = self.state.lock();
        let db = self.db.fork_latest(cost);
        let mut queue_entries: Vec<_> =
            st.queue.iter().map(|e| (e.tid, e.xact, Arc::clone(&e.ws), e.origin)).collect();
        // Tid order, so the recovering replica can rebuild its scheduling
        // index with the same incremental pushes delivery would have made.
        queue_entries.sort_by_key(|(tid, ..)| *tid);
        let boot = Bootstrap {
            wslist: st.wslist.clone(),
            queue_entries,
            outcomes: st.outcomes.clone(),
            max_committed: st.holes.max_committed(),
            membership: st.membership.clone(),
            departed: st.departed.clone(),
        };
        (db, boot)
    }

    // ---------------------------------------------------------------------
    // Client-side protocol (steps I.1, I.2)
    // ---------------------------------------------------------------------

    /// Wait (bounded) for `joined`; `false` sends the client elsewhere.
    fn await_own_join(&self) -> bool {
        if self.joined.load(Ordering::Acquire) {
            return true;
        }
        let deadline = Instant::now() + JOIN_DEADLINE;
        let mut st = self.state.lock();
        while !self.joined.load(Ordering::Acquire) {
            if !self.is_alive() || Instant::now() >= deadline {
                return false;
            }
            self.wait_state(&mut st);
        }
        true
    }

    /// Start a local transaction (step I.1.a): under SRCA-Rep the begin
    /// waits until the commit order has no holes, and is atomic with
    /// commits (both run under the node state lock).
    pub fn begin_local(self: &Arc<Self>) -> Result<ActiveTxn, DbError> {
        if !self.is_alive() || !self.await_own_join() {
            return Err(DbError::Aborted(AbortReason::ReplicaCrashed));
        }
        let xact = XactId { origin: self.id, seq: self.next_xact.fetch_add(1, Ordering::Relaxed) };
        Metrics::inc(&self.metrics.begins_total);
        match self.mode {
            ReplicationMode::SrcaRep => {
                let mut st = self.state.lock();
                let mut waited_from = None;
                if st.holes.holes_exist() {
                    waited_from = Some(self.journal.now_ns());
                    Metrics::inc(&self.metrics.begins_delayed_by_holes);
                    st.holes.start_waiting();
                    // A waiting local throttles hole-creating commits once
                    // no locals are running (liveness protocol of §4.3.3);
                    // existing holes drain.
                    while st.holes.holes_exist() && self.is_alive() {
                        self.wait_state(&mut st);
                    }
                    st.holes.done_waiting();
                    if !self.is_alive() {
                        return Err(DbError::Aborted(AbortReason::ReplicaCrashed));
                    }
                }
                let txn = self.db.begin()?;
                st.holes.local_started();
                // Captured atomically with the begin: the watermark this
                // transaction's snapshot reflects (no holes exist here, so
                // every tid ≤ snapshot is committed locally).
                let snapshot = st.holes.max_committed();
                let begin = EventKind::TxBegin { xact, gated: true };
                let waited = waited_from.map(|from| (Stage::BeginWait, from));
                let last_ns = self.auditor.report_ending(&self.journal, begin, waited.as_slice());
                self.recorder.on_begin(xact);
                // Commits throttled for a waiting begin may go on: we may
                // have been the last one waiting, and a local is running.
                self.unlock_and_wake(st, false);
                Ok(ActiveTxn {
                    xact,
                    txn,
                    snapshot,
                    guard: LocalGuard { node: Arc::clone(self) },
                    begin_ns: waited_from.unwrap_or(last_ns),
                    last_ns,
                })
            }
            ReplicationMode::SrcaOpt => {
                // No hole-rule synchronization: begin immediately (1-copy-SI
                // may be lost, which is the point of the ablation). The
                // engine begin and the snapshot-watermark capture still run
                // under one state-lock hold: sirep-model's P3 counterexample
                // (tests/model_replay.rs) showed that taking the engine
                // snapshot before the lock lets a commit slip between the
                // two, making the journaled snapshot claim tids the
                // transaction cannot read.
                self.pause_point(PausePoint::OptBeginPreLock);
                let mut st = self.state.lock();
                let txn = self.db.begin()?;
                st.holes.local_started();
                let snapshot = st.holes.max_committed();
                let last_ns =
                    self.auditor.report(&self.journal, EventKind::TxBegin { xact, gated: false });
                drop(st);
                self.recorder.on_begin(xact);
                Ok(ActiveTxn {
                    xact,
                    txn,
                    snapshot,
                    guard: LocalGuard { node: Arc::clone(self) },
                    begin_ns: last_ns,
                    last_ns,
                })
            }
        }
    }

    /// Commit a local transaction (step I.2): extract the writeset, run
    /// local validation against the tocommit queue, multicast in total
    /// order, and block until the transaction's fate is decided.
    pub fn commit_local(self: &Arc<Self>, active: ActiveTxn) -> Result<(), DbError> {
        let ActiveTxn { xact, txn, snapshot, guard, begin_ns, last_ns } = active;
        let requested = self.journal.stage(Stage::Execute, last_ns);
        let ws = txn.writeset();
        if ws.is_empty() {
            // Certification-free read-only path (step I.2.c): the
            // transaction ran entirely against the local snapshot — commit
            // locally with no multicast, no certification, no sequencer
            // round-trip. Its commit position is irrelevant for 1-copy-SI;
            // the journaled snapshot lets the auditor check the snapshot
            // itself was hole-free.
            self.recorder.on_local_committed(xact, &txn, &ws);
            txn.commit()?;
            self.recorder.on_commit(xact);
            let gated = self.mode == ReplicationMode::SrcaRep;
            let done = EventKind::LocalReadOnly { xact, snapshot, gated };
            let ends = [(Stage::Commit, requested), (Stage::Total, begin_ns)];
            // sirep-lint: allow(journal-gauge-under-lock): read-only commits touch no protocol state — the event is ordered by this session thread alone, and the checker re-checks the begin-time snapshot against its own frontier, which only grows
            self.auditor.report_ending(&self.journal, done, &ends);
            Metrics::inc(&self.metrics.commits_readonly);
            return Ok(());
        }
        let extracted = self.journal.stage(Stage::WsExtract, requested);
        if self.crash_point(CrashPoint::BeforeMulticast) {
            // §5.4 case 1/2: the transaction dies with its origin; nothing
            // was multicast, so no replica will ever see this writeset.
            txn.abort(AbortReason::ReplicaCrashed);
            return Err(DbError::Aborted(AbortReason::ReplicaCrashed));
        }
        let (reply_tx, reply_rx) = sync_channel(1);
        let ws = Arc::new(ws);
        {
            let mut st = self.state.lock();
            // Local validation (adjustment 1): only the tocommit queue —
            // O(|ws|) probes of its waiter index.
            if st.queue.conflicts(&ws) {
                // Journal the abort verdict at the decision point, under the
                // lock, so it cannot interleave after a later transaction's
                // events; only the database-side rollback runs outside.
                self.auditor.report(&self.journal, EventKind::Abort { xact });
                drop(st);
                txn.abort(AbortReason::ValidationFailure);
                Metrics::inc(&self.metrics.aborts_validation);
                return Err(DbError::Aborted(AbortReason::ValidationFailure));
            }
            let cert = st.wslist.last_tid();
            self.auditor.report(&self.journal, EventKind::CertCapture { xact, cert });
            let pending = PendingLocal { txn, responder: reply_tx, guard, last_ns: extracted };
            st.pending_local.insert(xact, pending);
            // Multicast while still holding the state lock, so that cert
            // capture order equals total-order sequence order. The ws_list
            // pruning protocol depends on this: every cert this replica puts
            // on the wire is an implicit progress promise ("my future certs
            // are ≥ this"), and the group-wide prune watermark is the
            // minimum of those promises. If another session captured a
            // higher cert and got sequenced first, the watermark could
            // overtake this writeset's cert and prune a conflicting entry
            // out of every replica's ws_list before this writeset validates
            // — a silent lost update.
            let msg = ReplMsg::WriteSet(Arc::new(WsMsg {
                origin: self.id,
                xact,
                cert,
                ws: Arc::clone(&ws),
            }));
            if self.gcs.multicast_total(msg).is_err() {
                // We crashed concurrently. The shutdown path may have swept
                // `pending_local` before this entry went in: take it back.
                let swept_late = st.pending_local.remove(&xact);
                drop(st);
                if let Some(p) = swept_late {
                    p.txn.abort(AbortReason::ReplicaCrashed);
                }
                return Err(DbError::Aborted(AbortReason::ReplicaCrashed));
            }
            self.auditor.report(&self.journal, EventKind::Multicast { xact });
        }
        if self.crash_point(CrashPoint::AfterMulticastBeforeLocalCommit) {
            // §5.4 case 3: the writeset is on the wire (survivors will
            // commit it) but this origin dies before committing or acking —
            // the client's commit is now in doubt and must be resolved via
            // `inquire` at another replica. `mark_crashed` already answered
            // our own pending entry with ReplicaCrashed.
            return Err(DbError::Aborted(AbortReason::ReplicaCrashed));
        }
        match reply_rx.recv() {
            Ok(Ok(job)) => {
                // Adjustment 2: commit immediately on this (the client's)
                // thread — never behind the applier pool. The guard keeps
                // the transaction a running local until it has committed.
                let LocalCommitJob { tid, txn, _guard, last_ns } = job;
                let woke = self.journal.stage(Stage::ValidateQueue, last_ns);
                self.recorder.on_local_committed(xact, &txn, &ws);
                let item = BatchItem { tid, xact, ws, last_ns: woke, begin_ns: Some(begin_ns) };
                self.finalize_batch(std::slice::from_ref(&item), txn);
                Metrics::inc(&self.metrics.commits_update);
                Ok(())
            }
            Ok(Err(e)) => Err(e),
            Err(_) => Err(DbError::Aborted(AbortReason::ReplicaCrashed)),
        }
    }

    /// Resolve an in-doubt transaction for a failed-over client (§5.4 case
    /// 3): blocks until the outcome is known or the origin's crash has been
    /// processed — uniform delivery guarantees no writeset can arrive after
    /// that — and for at most [`INQUIRE_DEADLINE`].
    pub fn inquire(&self, xact: XactId) -> Result<InDoubt, DbError> {
        let origin = MemberId::of(xact.origin.raw(), xact.incarnation());
        let deadline = Instant::now() + INQUIRE_DEADLINE;
        let mut st = self.state.lock();
        loop {
            if let Some(o) = st.outcomes.get(xact) {
                // A committed verdict is recorded at *validation* time, but
                // answering then is a session-order bug sirep-model found
                // (P7, tests/model_replay.rs): the writeset may still sit in
                // the tocommit queue, so a failed-over client told
                // "committed" could begin its next transaction here and
                // miss its own write. Hold the answer until the entry has
                // left the queue (committed locally).
                if o != Outcome::Committed || !st.queue.contains_xact(xact) {
                    return Ok(InDoubt::Known(o));
                }
            } else if st.has_departed(origin) {
                // The transaction's origin *incarnation* has departed:
                // uniform delivery put any writeset it multicast in front of
                // the view change we already processed, so no outcome means
                // no writeset — even if the replica id has since re-joined
                // (recovery). Absence from the view alone proves nothing:
                // before this node has processed a view containing the
                // origin it means "not seen yet", not "departed". (Guarded
                // on the outcome being absent: a known-but-not-yet-visible
                // outcome must wait below, never degrade to NeverReceived.)
                return Ok(InDoubt::NeverReceived);
            }
            if !self.is_alive() {
                return Err(DbError::Aborted(AbortReason::ReplicaCrashed));
            }
            if Instant::now() >= deadline {
                return Ok(InDoubt::Unknown);
            }
            self.wait_state(&mut st);
        }
    }

    // ---------------------------------------------------------------------
    // Delivery thread (step II: global validation in total order)
    // ---------------------------------------------------------------------

    pub(crate) fn run_delivery(self: Arc<Self>, member: Box<dyn Member<ReplMsg>>) {
        let idle = Duration::from_millis(10);
        loop {
            if !self.is_alive() {
                return;
            }
            match member.recv_timeout(idle) {
                Ok(Delivery::TotalOrder { msg, sequenced_at, .. }) => {
                    self.handle_total(msg, sequenced_at);
                }
                Ok(Delivery::Fifo { msg: ReplMsg::Progress { from, lastvalidated }, .. }) => {
                    self.handle_progress(from, lastvalidated);
                }
                Ok(Delivery::Fifo { msg: ReplMsg::Marker { token }, .. }) => {
                    self.handle_marker(token);
                }
                Ok(
                    Delivery::Fifo { msg: ReplMsg::WriteSet(_), .. } | Delivery::TotalBatch { .. },
                ) => {
                    debug_assert!(false, "writesets travel as single total-order deliveries only");
                }
                Ok(Delivery::ViewChange(v)) => self.handle_view(v),
                Err(GcsError::Timeout) => self.maybe_send_progress(),
                Err(_) => {
                    // Disconnected. Either someone crashed us, or the
                    // sequencer is gone or evicted us: without a delivery
                    // stream this replica is dead too. Fail-stop, so that
                    // commits already multicast are answered and clients
                    // resolve them at a survivor (§5.4).
                    self.mark_crashed();
                    return;
                }
            }
        }
    }

    /// Install a view: whoever the previous view named and this one does
    /// not has departed. Views are self-describing (a member id is its
    /// `(replica, incarnation)`), so this reads two views and nothing else.
    fn handle_view(&self, v: View) {
        let mut guard = self.state.lock();
        let st = &mut *guard;
        if v.id <= st.membership.id {
            // A recovered replica's stream starts at its own join view; the
            // donor's transferred state already reflects this one.
            return;
        }
        st.departed.extend(st.membership.members.iter().filter(|m| !v.contains(**m)));
        if v.contains(self.gcs.id()) {
            self.joined.store(true, Ordering::Release);
        }
        st.view = replicas_of(&v);
        st.membership = v;
        let members = st.view.len() as u64;
        self.auditor.report(&self.journal, EventKind::ViewChange { members });
        self.unlock_and_wake(guard, false);
    }

    /// Dispatch one totally-ordered message.
    fn handle_total(self: &Arc<Self>, msg: ReplMsg, sequenced_at: Instant) {
        match msg {
            ReplMsg::WriteSet(m) => self.handle_writeset(&m, sequenced_at),
            ReplMsg::Progress { from, lastvalidated } => self.handle_progress(from, lastvalidated),
            ReplMsg::Marker { token } => self.handle_marker(token),
        }
    }

    fn handle_progress(&self, from: ReplicaId, lastvalidated: GlobalTid) {
        let mut guard = self.state.lock();
        let st = &mut *guard;
        if let Some((watermark, removed)) =
            st.wslist.advance_progress(from, lastvalidated, &st.view)
        {
            self.auditor.report(&self.journal, EventKind::WsListPruned { watermark, removed });
            self.refresh_gauges(st);
        }
    }

    fn handle_marker(&self, token: u64) {
        let mut st = self.state.lock();
        st.markers_seen.insert(token);
        self.unlock_and_wake(st, false);
    }

    fn handle_writeset(self: &Arc<Self>, m: &WsMsg, sequenced_at: Instant) {
        let mut guard = self.state.lock();
        let st = &mut *guard;
        Metrics::inc(&self.metrics.ws_delivered);
        if st.outcomes.get(m.xact).is_some() {
            // Already decided — only possible on a recovered replica whose
            // delivery buffer overlaps the transferred state (the effect is
            // in the fork or the copied queue). Skip idempotently.
            return;
        }
        // The origin's multicast started at its writeset extraction; a
        // remote replica has only the transport's sequencing instant.
        let sent = match st.pending_local.get(&m.xact) {
            Some(p) => p.last_ns,
            None => self.journal.ns_at(sequenced_at),
        };
        let delivered = self.auditor.report_ending(
            &self.journal,
            EventKind::TotalOrderDeliver { xact: m.xact, cert: m.cert },
            &[(Stage::GcsDeliver, sent)],
        );
        if let Some((watermark, removed)) = st.wslist.advance_progress(m.origin, m.cert, &st.view) {
            self.auditor.report(&self.journal, EventKind::WsListPruned { watermark, removed });
        }
        if st.wslist.passes(m.cert, &m.ws) {
            let tid = st.wslist.append(m.xact, Arc::clone(&m.ws));
            st.holes.on_validated(tid);
            self.auditor.report(
                &self.journal,
                EventKind::ValidationVerdict {
                    xact: m.xact,
                    cert: m.cert,
                    tid: Some(tid),
                    keys: key_digest(&m.ws),
                },
            );
            // A local entry with a waiting session commits on the session
            // thread (adjustment 2); mark it running so no applier picks it.
            let local_job = if m.origin == self.id {
                st.pending_local.remove(&m.xact).map(|p| {
                    let job =
                        LocalCommitJob { tid, txn: p.txn, _guard: p.guard, last_ns: delivered };
                    (p.responder, job)
                })
            } else {
                None
            };
            let entry = QEntry::new(tid, m.xact, Arc::clone(&m.ws), m.origin, local_job.is_some());
            let ready = st.queue.push(QEntry { last_ns: delivered, ..entry });
            // Apply a ready remote writeset here if nothing can make that
            // wait: no older entry is ready, the hole rule admits its commit,
            // no service time is charged (it sleeps). Locks: `run_batch`.
            let inline = ready
                && st.queue.ready.len() == 1
                && (self.mode == ReplicationMode::SrcaOpt || st.holes.may_commit(tid, false))
                && self.db.cost_model().is_free();
            let claimed = if inline { st.queue.pop_ready().map(BatchItem::of) } else { None };
            st.outcomes.record(m.xact, Outcome::Committed);
            self.refresh_gauges(st);
            // An `inquire` may be parked for this outcome, an applier for
            // the entry.
            self.unlock_and_wake(guard, ready && !inline);
            if let Some((responder, job)) = local_job {
                let _ = responder.send(Ok(job));
            }
            if let Some(item) = claimed {
                self.run_batch(vec![item], false);
            }
        } else {
            st.outcomes.record(m.xact, Outcome::Aborted);
            Metrics::inc(&self.metrics.ws_discarded);
            self.auditor.report(
                &self.journal,
                EventKind::ValidationVerdict {
                    xact: m.xact,
                    cert: m.cert,
                    tid: None,
                    keys: Arc::default(),
                },
            );
            self.refresh_gauges(st);
            let pending = if m.origin == self.id { st.pending_local.remove(&m.xact) } else { None };
            if pending.is_some() {
                // Abort verdict is journaled under the lock (ordered with
                // the ValidationVerdict above); rollback runs outside.
                self.auditor.report(&self.journal, EventKind::Abort { xact: m.xact });
            }
            self.unlock_and_wake(guard, false);
            if let Some(p) = pending {
                p.txn.abort(AbortReason::ValidationFailure);
                Metrics::inc(&self.metrics.aborts_validation);
                let _ = p.responder.send(Err(DbError::Aborted(AbortReason::ValidationFailure)));
            }
        }
    }

    /// When idle and the ws_list is growing, advertise our progress so every
    /// replica can prune (we promise future certs ≥ lastvalidated).
    fn maybe_send_progress(&self) {
        const PRUNE_THRESHOLD: usize = 64;
        let mut st = self.state.lock();
        let lastvalidated = st.wslist.last_tid();
        if st.wslist.len() <= PRUNE_THRESHOLD || lastvalidated <= st.last_progress_sent {
            return;
        }
        if self.gcs.multicast_fifo(ReplMsg::Progress { from: self.id, lastvalidated }).is_ok() {
            st.last_progress_sent = lastvalidated;
        }
    }

    // ---------------------------------------------------------------------
    // Applier threads (step III)
    // ---------------------------------------------------------------------

    pub(crate) fn run_applier(self: Arc<Self>) {
        loop {
            // Claim every currently-eligible entry in one sweep, bounded by
            // APPLIER_BATCH_MAX (group commit). Each ready entry has zero
            // blockers against *all* queued predecessors — including the
            // others claimed here — so the batch is mutually
            // non-conflicting and can safely be applied inside a single
            // engine transaction. pop_ready pops the smallest ready tid
            // first, so the batch is ascending by construction.
            let batch = {
                let mut st = self.state.lock();
                loop {
                    if !self.is_alive() {
                        return;
                    }
                    let mut claimed = Vec::new();
                    while claimed.len() < APPLIER_BATCH_MAX {
                        let Some(e) = st.queue.pop_ready() else { break };
                        claimed.push(BatchItem::of(e));
                    }
                    if !claimed.is_empty() {
                        // What the bound left behind is the next applier's.
                        if !st.queue.ready.is_empty() && st.idle > 0 {
                            self.apply_cond.notify_one();
                        }
                        break claimed;
                    }
                    self.wait_apply(&mut st);
                }
            };
            self.run_batch(batch, true);
        }
    }

    /// Apply and commit a claimed batch (step III) on an applier or, `wait`
    /// false, on the delivery thread, which must never wait in the database
    /// (§4.2): a tuple lock a local transaction holds sends the batch to an
    /// applier, which waits instead until the local fails validation.
    fn run_batch(&self, mut batch: Vec<BatchItem>, wait: bool) {
        // Claimed entries are still in the queue (until finalize_batch
        // removes them), so a thread parked here models "validated but
        // not yet locally visible" for the P7 replay test.
        self.pause_point(PausePoint::ApplierBeforeCommit);
        if self.crash_point(CrashPoint::AfterDeliverBeforeCommit) {
            // The writesets were delivered and validated here but die
            // uncommitted with the replica; uniform delivery means
            // every survivor still commits them.
            return;
        }
        // Only remote writesets get here (local entries are committed by
        // their session thread and enter the queue already marked running).
        // A nominally-local entry without a session — transferred during
        // recovery from before our crash — is applied like any remote one.
        for item in &mut batch {
            let start = EventKind::ApplyStart { xact: item.xact, tid: item.tid };
            let queued = [(Stage::ValidateQueue, item.last_ns)];
            // sirep-lint: allow(journal-gauge-under-lock): apply runs outside the state lock by design (the paper's adjustment 2 — appliers work in parallel); Apply* events are ordered per-tid by the queue's running flag, not by the lock
            item.last_ns = self.auditor.report_ending(&self.journal, start, &queued);
        }
        let Some(handle) = self.apply_batch(&batch, wait) else {
            // Back to the ready set (harmless if the replica is down).
            let mut st = self.state.lock();
            for item in &batch {
                st.queue.unclaim(item.tid, item.last_ns);
            }
            return self.unlock_and_wake(st, true);
        };
        for item in &mut batch {
            let done = EventKind::ApplyDone { xact: item.xact, tid: item.tid };
            let applied = [(Stage::Apply, item.last_ns)];
            // sirep-lint: allow(journal-gauge-under-lock): same as ApplyStart above — apply is deliberately lock-free; finalize_batch re-enters the lock for the commit records
            item.last_ns = self.auditor.report_ending(&self.journal, done, &applied);
        }
        self.finalize_batch(&batch, handle);
    }

    /// Apply a batch of mutually non-conflicting remote writesets inside
    /// ONE engine transaction — the group-commit half of adjustment 2's
    /// concurrency: n writesets cost n applications but a single commit
    /// log force. Retries the whole batch on database deadlocks (§4.2:
    /// "the middleware has to reapply the writeset until the remote
    /// transaction succeeds"); dropping the handle rolls back every
    /// already-applied member, so a retry starts clean. `None`: the replica
    /// is down, or a retry was due that must not `wait`.
    fn apply_batch(&self, batch: &[BatchItem], wait: bool) -> Option<TxnHandle> {
        let apply = if wait { TxnHandle::apply_writeset } else { TxnHandle::apply_writeset_nowait };
        'retry: loop {
            if !self.is_alive() {
                return None;
            }
            let Ok(txn) = self.db.begin() else { return None };
            for item in batch {
                match apply(&txn, &item.ws) {
                    Ok(()) => {}
                    Err(DbError::Aborted(AbortReason::Deadlock))
                    | Err(DbError::Aborted(AbortReason::SerializationFailure)) => {
                        Metrics::inc(&self.metrics.ws_apply_retries);
                        if !wait {
                            return None;
                        }
                        continue 'retry;
                    }
                    Err(DbError::Aborted(AbortReason::Shutdown)) => return None,
                    Err(e) => {
                        // Schema divergence would be a bug: surface loudly.
                        // sirep-lint: allow(no-unwrap-on-protocol-paths): a remote writeset that fails for a non-transient reason means the replicas' schemas diverged — continuing would silently fork the copies, so crash instead
                        panic!("writeset application failed irrecoverably: {e}");
                    }
                }
            }
            return Some(txn);
        }
    }

    /// The commit step of a validated transaction: a group commit of
    /// applied remote entries, or a local transaction on its session thread
    /// (adjustment 2) as a batch of one. One log force outside the lock,
    /// then the engine commit and per-entry protocol bookkeeping in
    /// ascending tid order under it, atomic with begins.
    ///
    /// The hole rule gates on the batch's *smallest* tid only. Gating on
    /// every member jointly can deadlock two appliers — batch {t1, t5}
    /// waiting on t3 while the applier holding {t3} waits on t1 — whereas
    /// gating on the smallest preserves liveness by the same induction as
    /// unbatched commits: the smallest pending tid above the watermark is
    /// always allowed through. Later batch members may open holes, exactly
    /// as an unthrottled single commit may; local begins still gate on
    /// `holes_exist`, so 1-copy-SI is intact. A committing local still
    /// counts as running (its session holds its `LocalGuard`), so the rule
    /// never throttles it.
    fn finalize_batch(&self, batch: &[BatchItem], txn: TxnHandle) {
        let Some(gate) = batch.first().map(|i| i.tid) else { return };
        // One flush charge for the whole batch — the group-commit saving.
        self.db.cost_model().commit_batch(batch.len());
        let mut st = self.state.lock();
        if self.mode == ReplicationMode::SrcaRep {
            let mut counted = false;
            // The delivery thread waits here only for appliers: the rule
            // admitted its batch at claim and turns only if a begin waits
            // while no local runs (one awaiting its verdict runs). Then no
            // local lock blocks an applier, and every smaller pending tid is
            // certified: the appliers commit them all.
            while !st.holes.may_commit(gate, false) && self.is_alive() {
                if !counted {
                    Metrics::inc(&self.metrics.commits_delayed_for_holes);
                    counted = true;
                }
                self.wait_state(&mut st);
            }
        }
        if !self.is_alive() {
            drop(st);
            txn.abort(AbortReason::Shutdown);
            return;
        }
        // A remote transaction begins here, at its commit and under the
        // lock, so its begin never spans a conflicting commit (its position
        // does not matter otherwise: remote readsets are empty, Def. 3).
        // Batch members don't conflict with each other, so one begin
        // spanning a sibling's commit is harmless.
        for item in batch.iter().filter(|item| item.begin_ns.is_none()) {
            self.recorder.on_begin(item.xact);
        }
        let res = txn.commit_quiet();
        debug_assert!(res.is_ok(), "validated batch failed to commit: {res:?}");
        for item in batch {
            self.recorder.on_commit(item.xact);
            self.note_committed(&mut st, item);
        }
        // O(|ws| + released edges) per entry: unblocks successors, which an
        // idle applier is woken for.
        let released: usize = batch.iter().map(|item| st.queue.remove(item.tid)).sum();
        self.refresh_gauges(&st);
        self.unlock_and_wake(st, released > 0);
    }

    /// Protocol bookkeeping for one committed entry, under the lock: advance
    /// the hole tracker and report the commit — which ends its `commit`
    /// stage (the hole-rule wait is part of perceived commit latency) and a
    /// local transaction's `total` —, preceded by the hole-set transition
    /// (empty ↔ nonempty) it caused, if any.
    fn note_committed(&self, st: &mut NodeState, item: &BatchItem) {
        let BatchItem { tid, xact, last_ns, begin_ns, .. } = *item;
        let had_holes = st.holes.holes_exist();
        st.holes.on_committed(tid);
        let transition = match (had_holes, st.holes.holes_exist()) {
            (false, true) => Some(EventKind::HoleOpened { tid }),
            (true, false) => Some(EventKind::HoleClosed { tid }),
            _ => None,
        };
        if let Some(transition) = transition {
            self.auditor.report(&self.journal, transition);
        }
        let commit = EventKind::Commit { xact, tid };
        let ended = (Stage::Commit, last_ns);
        match begin_ns {
            Some(begin_ns) => self.auditor.report_ending(
                &self.journal,
                commit,
                &[ended, (Stage::Total, begin_ns)],
            ),
            None => self.auditor.report_ending(&self.journal, commit, &[ended]),
        };
    }

    // ---------------------------------------------------------------------
    // Crash / shutdown
    // ---------------------------------------------------------------------

    /// Bring this replica down: fail all client operations, kill active
    /// database transactions, answer pending commits with a crash error.
    /// The caller must also crash the GCS member so survivors get a view
    /// change.
    pub(crate) fn mark_crashed(&self) {
        if self.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        self.db.crash();
        let pendings: Vec<PendingLocal> = {
            let mut st = self.state.lock();
            st.pending_local.drain().map(|(_, p)| p).collect()
        };
        for p in pendings {
            p.txn.abort(AbortReason::ReplicaCrashed);
            let _ = p.responder.send(Err(DbError::Aborted(AbortReason::ReplicaCrashed)));
        }
        self.cond.notify_all();
        self.apply_cond.notify_all();
    }
}

/// The logical replicas a view's members are incarnations of, sorted.
fn replicas_of(view: &View) -> Vec<ReplicaId> {
    let mut replicas: Vec<ReplicaId> = view.members.iter().map(|m| m.replica()).collect();
    replicas.sort();
    replicas.dedup();
    replicas
}
