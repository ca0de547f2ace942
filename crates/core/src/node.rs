//! The decentralized middleware replica `M^k` running SRCA-Rep (Fig. 4 of
//! the paper), including adjustments 1–3 of §4:
//!
//! - **Adjustment 1**: local validation checks only the local
//!   `tocommit_queue` (the database already validated against everything
//!   that committed);
//! - **Adjustment 2**: writesets are applied and committed *concurrently*
//!   when they don't conflict with anything earlier in the queue — this is
//!   what removes the middleware/database "hidden deadlock" of §4.2;
//! - **Adjustment 3**: start/commit synchronization via the hole tracker,
//!   which restores 1-copy-SI. Running in
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
//! This file is the shell around [`ReplicaCore`] (`replica.rs`), which
//! makes every protocol decision and holds the local transactions awaiting
//! their verdict, each with its session's `Verdict` sender. One lock, the
//! paper's `wsmutex` (`state`, `node-state` in lint.toml), guards the core.
//! Each hold makes one core call and does the database step that must be
//! atomic with it; the call reports its own events, through the sink
//! `auditor.reporter(&journal)` made in the same hold:
//!
//! | hold | core call | also under the lock |
//! |---|---|---|
//! | begin | `wait_begin` (and the hole wait), then `begin` | `db.begin` |
//! | local validation | `submit` | the multicast, `Multicast` |
//! | delivery | `deliver`, `progress`, `view_change` or `marker` | a progress advert when idle |
//! | applier claim, give-back | `claim`, `unclaim` | |
//! | commit | `commit` | `commit_quiet` |
//! | end of a local | `local_finished` | |
//! | inquiry, recovery | `inquire`, `marker_seen`, `transfer`, `reset` | the donor's database fork |
//! | crash | `forget_locals` | `CrashPointFired` (its own hold) |
//!
//! The gates (`passes`, `holes_exist`, `may_commit`) are core queries asked
//! in the hold they gate. Database work (reads, writes, writeset
//! application, the commit log force) happens outside the lock. An update
//! commit takes it five times at its origin (begin, local validation,
//! delivery, commit, end of the local) and twice at a remote (delivery,
//! commit), or three times when an applier has to claim it.
//!
//! Two condvars pair with it, so a wake-up reaches only the kind of thread
//! that has work:
//!
//! - an *applier* parks on `apply_cond`, counted in `NodeState::idle`, and
//!   one is woken (`notify_one`) when the ready set grew (`deliver`,
//!   `commit` and `unclaim` say so) while one is idle. One is enough: a
//!   claim sweeps everything ready, and one that leaves entries behind
//!   wakes the next applier. A local entry is born `running`: its commit
//!   wakes no applier;
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

use crate::audit::{read_digest, Auditor};
use crate::chaos::{CrashPlan, PausePoint};
use crate::msg::{ReplMsg, WsMsg, XactId};
use crate::replica::{Claimed, InDoubt, ReplicaCore, Report};
use parking_lot::{Condvar, Mutex, MutexGuard};
use sirep_common::{
    AbortReason, CrashPoint, DbError, EventKind, GaugeSnapshot, GlobalTid, Journal, MemberId,
    Metrics, ProtocolGauges, ReplicaId, Stage, StageSnapshot, TransportSnapshot,
};
use sirep_gcs::{Cast, Delivery, GcsError, Member, View};
use sirep_storage::{Database, TxnHandle};
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

/// Verdicts a replica keeps for in-doubt resolution (§5.4 case 3).
const OUTCOME_CAP: usize = 1 << 16;

/// How a local transaction multicast and awaiting its fate learns it: its
/// tid and the delivery's stamp (where `validate_queue` starts), or why it
/// aborted. On a pass the session thread commits the transaction itself —
/// the paper's adjustment 2: a validated local transaction "can commit
/// immediately", without queueing behind the appliers (routing local
/// commits through the applier pool can starve them when every applier is
/// blocked inside the database on a local's tuple lock — a reincarnation of
/// the §4.2 hidden deadlock).
type Verdict = SyncSender<Result<(GlobalTid, u64), AbortReason>>;

/// The replica core, each awaiting local with its session's [`Verdict`].
type Core = ReplicaCore<Verdict>;

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
        st.core.local_finished();
        self.node.unlock_and_wake(st, false);
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

// Telemetry wire form: scraped by the per-process telemetry service and
// merged by the multinode `report` role.
sirep_common::wire_codec!(struct NodeStatus {
    replica,
    alive,
    last_validated,
    queued,
    pending_local,
    holes_open,
    running_locals,
    waiting_to_start,
    view,
    metrics,
    stages,
    gauges,
    transport,
});

/// Everything the paper's `wsmutex` keeps atomic with local transaction
/// begins and commits. Guarded by the node's one lock (`node-state` in
/// lint.toml).
struct NodeState {
    core: Core,
    /// Threads parked on `cond` right now ([`ReplicaNode::wait_state`]).
    waiters: usize,
    /// Appliers parked on `apply_cond` right now
    /// ([`ReplicaNode::wait_apply`]).
    idle: usize,
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
    /// Protocol event journal for this replica, and the clock its stage
    /// latencies are measured on (no-op without `trace`).
    pub journal: Journal,
    /// Queue-depth gauges, refreshed at mutation sites under the lock
    /// (no-op without `trace`).
    pub gauges: ProtocolGauges,
    /// Cluster-wide 1-copy-SI auditor. Every protocol transition is
    /// reported to `auditor.reporter(&journal)` — one sink that checks the
    /// event and appends it to the journal ring — under the state lock (the
    /// auditor's own lock is a strict leaf).
    auditor: Arc<Auditor>,
    /// Armed crash-points shared across the cluster (chaos harness).
    crash_plan: Arc<CrashPlan>,
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
    pub(crate) fn new(
        db: Database,
        gcs: Box<dyn Cast<ReplMsg>>,
        mode: ReplicationMode,
        bootstrap: Option<Core>,
        journal: Journal,
        auditor: Arc<Auditor>,
        crash_plan: Arc<CrashPlan>,
    ) -> Arc<ReplicaNode> {
        // A recovered replica's stream restarts from the transferred state.
        let recovered = bootstrap.is_some();
        let core = bootstrap
            .unwrap_or_else(|| ReplicaCore::new(mode == ReplicationMode::SrcaRep, OUTCOME_CAP));
        let state = NodeState { core, waiters: 0, idle: 0 };
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
            journal,
            gauges: ProtocolGauges::new(),
            auditor,
            crash_plan,
        });
        if recovered {
            // First event of the new incarnation, before the caller starts
            // any thread that could report for it.
            let mut st = node.state.lock();
            st.core.reset(&mut node.auditor.reporter(&node.journal));
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

    /// Park on `cond` until `done` holds (`true`), or the node dies or
    /// `deadline` passes (`false`).
    fn wait_until(&self, deadline: Instant, mut done: impl FnMut(&mut Core) -> bool) -> bool {
        let mut st = self.state.lock();
        while !done(&mut st.core) {
            if !self.is_alive() || Instant::now() >= deadline {
                return false;
            }
            self.wait_state(&mut st);
        }
        true
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
    /// be called *without* the state lock held — it takes it to record the
    /// firing between other holds' events, and `mark_crashed` takes it.
    pub(crate) fn crash_point(&self, point: CrashPoint) -> bool {
        if !self.crash_plan.fire(point, self.id) {
            return false;
        }
        let st = self.state.lock();
        self.auditor.reporter(&self.journal).report(EventKind::CrashPointFired { point }, &[]);
        drop(st);
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
    /// skip it (queue depth changes on push and remove). Without `trace`
    /// the gauges are no-ops.
    fn refresh_gauges(&self, st: &NodeState) {
        let z = st.core.sizes();
        self.gauges.ws_list_len.set(z.ws_list as u64);
        self.gauges.open_holes.set(z.open_holes as u64);
        self.gauges.cert_index_keys.set(z.cert_index_keys as u64);
        self.gauges.tocommit_depth.set(z.queued as u64);
        self.gauges.applier_backlog.set(z.backlog as u64);
        self.gauges.ready_len.set(z.ready as u64);
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

    /// Current number of queued (validated, uncommitted) writesets.
    pub fn queue_len(&self) -> usize {
        self.state.lock().core.sizes().queued
    }

    /// A point-in-time snapshot of this replica's protocol state, for
    /// monitoring and load-balancing decisions.
    pub fn status(&self) -> NodeStatus {
        let st = self.state.lock();
        self.refresh_gauges(&st);
        let z = st.core.sizes();
        NodeStatus {
            replica: self.id,
            alive: self.is_alive(),
            last_validated: st.core.last_validated(),
            queued: z.queued,
            pending_local: z.pending_local,
            holes_open: z.open_holes > 0,
            running_locals: z.running_locals,
            waiting_to_start: z.waiting_to_start,
            view: st.core.view().to_vec(),
            metrics: Metrics::clone(&self.metrics),
            stages: self.journal.stages(),
            gauges: self.gauges.snapshot(self.gcs.in_flight()),
            transport: self.gcs.transport(),
        }
    }

    /// Pending local transactions awaiting validation/commit.
    pub fn pending_len(&self) -> usize {
        self.state.lock().core.sizes().pending_local
    }

    /// `lastvalidated_tid` at this replica.
    pub fn last_validated(&self) -> GlobalTid {
        self.state.lock().core.last_validated()
    }

    /// Block until this node's delivery thread has processed the recovery
    /// marker `token` (and therefore every message sequenced before it).
    pub(crate) fn wait_for_marker(&self, token: u64, timeout: Duration) -> bool {
        self.wait_until(Instant::now() + timeout, |core| core.marker_seen(token))
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
    pub(crate) fn state_transfer(&self, cost: sirep_storage::CostModel) -> (Database, Core) {
        let st = self.state.lock();
        let db = self.db.fork_latest(cost);
        (db, st.core.transfer())
    }

    // ---------------------------------------------------------------------
    // Client-side protocol (steps I.1, I.2)
    // ---------------------------------------------------------------------

    /// Wait (bounded) for `joined`; `false` sends the client elsewhere.
    fn await_own_join(&self) -> bool {
        let joined = || self.joined.load(Ordering::Acquire);
        joined() || self.wait_until(Instant::now() + JOIN_DEADLINE, |_| joined())
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
        let gated = self.mode == ReplicationMode::SrcaRep;
        if !gated {
            // SRCA-Opt begins without hole synchronization (1-copy-SI may
            // be lost, which is the point of the ablation). The engine
            // begin and the snapshot-watermark capture still run under one
            // state-lock hold: sirep-model's P3 counterexample
            // (tests/model_replay.rs) showed that taking the engine
            // snapshot before the lock lets a commit slip between the two,
            // making the journaled snapshot claim tids the transaction
            // cannot read.
            self.pause_point(PausePoint::OptBeginPreLock);
        }
        let mut st = self.state.lock();
        let mut waited_from = None;
        if gated && st.core.holes_exist() {
            waited_from = Some(self.journal.now_ns());
            Metrics::inc(&self.metrics.begins_delayed_by_holes);
            st.core.wait_begin();
            // A waiting local throttles hole-creating commits once no
            // locals are running (liveness protocol of §4.3.3); existing
            // holes drain.
            while st.core.holes_exist() && self.is_alive() {
                self.wait_state(&mut st);
            }
            if !self.is_alive() {
                // A crashed node's core makes no further decisions.
                return Err(DbError::Aborted(AbortReason::ReplicaCrashed));
            }
        }
        // Fails only on a crashed database.
        let txn = self.db.begin()?;
        // Captured atomically with the begin: the watermark this
        // transaction's snapshot reflects (no holes exist here, so every
        // tid ≤ snapshot is committed locally).
        let report = &mut self.auditor.reporter(&self.journal);
        let (snapshot, last_ns) = st.core.begin(xact, waited_from, report);
        // Commits throttled for a waiting begin may go on: we may have been
        // the last one waiting, and a local is running.
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

    /// Commit a local transaction (step I.2): extract the writeset, run
    /// local validation against the tocommit queue, multicast in total
    /// order, and block until the transaction's fate is decided.
    pub fn commit_local(self: &Arc<Self>, active: ActiveTxn) -> Result<(), DbError> {
        let ActiveTxn { xact, txn, snapshot, guard: _guard, begin_ns, last_ns } = active;
        let requested = self.journal.stage(Stage::Execute, last_ns);
        let ws = txn.writeset();
        // Def. 3's readset, journaled at the origin only.
        let reads = read_digest(&txn);
        if ws.is_empty() {
            // Certification-free read-only path (step I.2.c): the
            // transaction ran entirely against the local snapshot — commit
            // locally with no multicast, no certification, no sequencer
            // round-trip. Its commit position is irrelevant for 1-copy-SI;
            // the journaled snapshot lets the auditor check the snapshot
            // itself was hole-free.
            txn.commit()?;
            let gated = self.mode == ReplicationMode::SrcaRep;
            let done = EventKind::LocalReadOnly { xact, snapshot, gated, reads };
            let ends = [(Stage::Commit, requested), (Stage::Total, begin_ns)];
            // sirep-lint: allow(journal-gauge-under-lock): read-only commits touch no protocol state — the event is ordered by this session thread alone, and the checker re-checks the begin-time snapshot against its own frontier, which only grows
            self.auditor.reporter(&self.journal).report(done, &ends);
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
            // Local validation (adjustment 1): only the tocommit queue. The
            // core journals an abort at the decision point, under the lock,
            // so it cannot interleave after a later transaction's events;
            // only the database-side rollback runs outside.
            let report = &mut self.auditor.reporter(&self.journal);
            let Some(cert) = st.core.submit(xact, &ws, reads, extracted, reply_tx, report) else {
                drop(st);
                txn.abort(AbortReason::ValidationFailure);
                Metrics::inc(&self.metrics.aborts_validation);
                return Err(DbError::Aborted(AbortReason::ValidationFailure));
            };
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
                // We crashed concurrently; the waiter dies with the core.
                drop(st);
                txn.abort(AbortReason::ReplicaCrashed);
                return Err(DbError::Aborted(AbortReason::ReplicaCrashed));
            }
            self.auditor.reporter(&self.journal).report(EventKind::Multicast { xact }, &[]);
        }
        if self.crash_point(CrashPoint::AfterMulticastBeforeLocalCommit) {
            // §5.4 case 3: the writeset is on the wire (survivors will
            // commit it) but this origin dies before committing or acking —
            // the client's commit is now in doubt and must be resolved via
            // `inquire` at another replica.
            txn.abort(AbortReason::ReplicaCrashed);
            return Err(DbError::Aborted(AbortReason::ReplicaCrashed));
        }
        let (tid, last_ns) = match reply_rx.recv().unwrap_or(Err(AbortReason::ReplicaCrashed)) {
            Ok(passed) => passed,
            Err(reason) => {
                txn.abort(reason);
                return Err(DbError::Aborted(reason));
            }
        };
        // Adjustment 2: commit immediately on this (the client's) thread —
        // never behind the applier pool. The guard keeps the transaction a
        // running local until it has committed.
        let woke = self.journal.stage(Stage::ValidateQueue, last_ns);
        let entry = Claimed { tid, xact, ws, last_ns: woke };
        self.finalize_batch(std::slice::from_ref(&entry), Some(begin_ns), txn);
        Metrics::inc(&self.metrics.commits_update);
        Ok(())
    }

    /// Resolve an in-doubt transaction for a failed-over client (§5.4 case
    /// 3): blocks until the outcome is known or the origin's crash has been
    /// processed — uniform delivery guarantees no writeset can arrive after
    /// that — and for at most [`INQUIRE_DEADLINE`].
    pub fn inquire(&self, xact: XactId) -> Result<InDoubt, DbError> {
        let mut answer = None;
        self.wait_until(Instant::now() + INQUIRE_DEADLINE, |core| {
            answer = core.inquire(xact);
            answer.is_some()
        });
        match answer {
            Some(answer) => Ok(answer),
            None if !self.is_alive() => Err(DbError::Aborted(AbortReason::ReplicaCrashed)),
            None => Ok(InDoubt::Unknown),
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
                Ok(Delivery::TotalOrder { msg: ReplMsg::WriteSet(m), sequenced_at, .. }) => {
                    self.handle_writeset(&m, sequenced_at);
                }
                Ok(
                    Delivery::TotalOrder { msg: ReplMsg::Progress { from, lastvalidated }, .. }
                    | Delivery::Fifo { msg: ReplMsg::Progress { from, lastvalidated }, .. },
                ) => self.handle_progress(from, lastvalidated),
                Ok(
                    Delivery::TotalOrder { msg: ReplMsg::Marker { token }, .. }
                    | Delivery::Fifo { msg: ReplMsg::Marker { token }, .. },
                ) => self.handle_marker(token),
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

    /// Install a view (a view not newer than the installed one changes
    /// nothing).
    fn handle_view(&self, v: View) {
        let joined = v.contains(self.gcs.id());
        let mut st = self.state.lock();
        if !st.core.view_change(v, &mut self.auditor.reporter(&self.journal)) {
            return;
        }
        if joined {
            self.joined.store(true, Ordering::Release);
        }
        self.unlock_and_wake(st, false);
    }

    fn handle_progress(&self, from: ReplicaId, lastvalidated: GlobalTid) {
        let mut st = self.state.lock();
        if st.core.progress(from, lastvalidated, &mut self.auditor.reporter(&self.journal)) {
            self.refresh_gauges(&st);
        }
    }

    fn handle_marker(&self, token: u64) {
        let mut st = self.state.lock();
        st.core.marker(token);
        self.unlock_and_wake(st, false);
    }

    fn handle_writeset(self: &Arc<Self>, m: &WsMsg, sequenced_at: Instant) {
        let sequenced = self.journal.ns_at(sequenced_at);
        let mut st = self.state.lock();
        Metrics::inc(&self.metrics.ws_delivered);
        let passed = st.core.passes(m.cert, &m.ws);
        // Apply a ready remote writeset here if nothing can make that wait:
        // the core checks that no older entry is ready and that the hole
        // rule admits its commit; no service time may be charged (it
        // sleeps). Locks: `run_batch`.
        let inline = self.db.cost_model().is_free();
        let report = &mut self.auditor.reporter(&self.journal);
        let Some(d) = st.core.deliver(m, passed, sequenced, inline, report) else { return };
        self.refresh_gauges(&st);
        if d.tid.is_none() {
            Metrics::inc(&self.metrics.ws_discarded);
            if d.local.is_some() {
                Metrics::inc(&self.metrics.aborts_validation);
            }
        }
        // An `inquire` may be parked for this outcome, an applier for the
        // entry.
        self.unlock_and_wake(st, d.ready);
        if let Some(session) = d.local {
            let _ =
                session.send(d.tid.map(|tid| (tid, d.at)).ok_or(AbortReason::ValidationFailure));
        }
        if let Some(entry) = d.claimed {
            self.run_batch(vec![entry], false);
        }
    }

    /// When idle and the ws_list is growing, advertise our progress so every
    /// replica can prune (we promise future certs ≥ lastvalidated).
    fn maybe_send_progress(&self) {
        let mut st = self.state.lock();
        let Some(lastvalidated) = st.core.progress_due() else { return };
        if self.gcs.multicast_fifo(ReplMsg::Progress { from: self.id, lastvalidated }).is_ok() {
            st.core.progress_sent(lastvalidated);
        }
    }

    // ---------------------------------------------------------------------
    // Applier threads (step III)
    // ---------------------------------------------------------------------

    pub(crate) fn run_applier(self: Arc<Self>) {
        loop {
            // Claim every currently-eligible entry in one sweep, bounded by
            // APPLIER_BATCH_MAX (group commit). The batch is mutually
            // non-conflicting and ascending (`ReplicaCore::claim`), so it
            // can safely be applied inside a single engine transaction.
            let batch = {
                let mut st = self.state.lock();
                loop {
                    if !self.is_alive() {
                        return;
                    }
                    let report = &mut self.auditor.reporter(&self.journal);
                    let claimed = st.core.claim(APPLIER_BATCH_MAX, report);
                    if !claimed.is_empty() {
                        // What the bound left behind is the next applier's.
                        if st.core.sizes().ready > 0 && st.idle > 0 {
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
    fn run_batch(&self, mut batch: Vec<Claimed>, wait: bool) {
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
        // Each one's `ApplyStart` was reported by its claim.
        let Some(handle) = self.apply_batch(&batch, wait) else {
            // Back to the ready set (harmless if the replica is down).
            let mut st = self.state.lock();
            st.core.unclaim(batch.iter().map(|e| (e.tid, e.last_ns)));
            return self.unlock_and_wake(st, true);
        };
        for item in &mut batch {
            let done = EventKind::ApplyDone { xact: item.xact, tid: item.tid };
            let applied = [(Stage::Apply, item.last_ns)];
            // sirep-lint: allow(journal-gauge-under-lock): apply runs outside the state lock by design (the paper's adjustment 2 — appliers work in parallel); ApplyDone is ordered per-tid by the queue's running flag, not by the lock, and finalize_batch re-enters the lock for the commit records
            item.last_ns = self.auditor.reporter(&self.journal).report(done, &applied);
        }
        self.finalize_batch(&batch, None, handle);
    }

    /// Apply a batch of mutually non-conflicting remote writesets inside
    /// ONE engine transaction — the group-commit half of adjustment 2's
    /// concurrency: n writesets cost n applications but a single commit
    /// log force. Retries the whole batch on database deadlocks (§4.2:
    /// "the middleware has to reapply the writeset until the remote
    /// transaction succeeds"); dropping the handle rolls back every
    /// already-applied member, so a retry starts clean. `None`: the replica
    /// is down, or a retry was due that must not `wait`.
    fn apply_batch(&self, batch: &[Claimed], wait: bool) -> Option<TxnHandle> {
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
    /// (adjustment 2) as a batch of one, with `begin_ns` its begin stamp,
    /// where its `total` stage starts. One log force outside the lock, then
    /// the engine commit and the core's bookkeeping under it, atomic with
    /// begins.
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
    fn finalize_batch(&self, batch: &[Claimed], begin_ns: Option<u64>, txn: TxnHandle) {
        let Some(gate) = batch.first().map(|e| e.tid) else { return };
        // One flush charge for the whole batch — the group-commit saving.
        self.db.cost_model().commit_batch(batch.len());
        let mut st = self.state.lock();
        let mut counted = false;
        // The delivery thread waits here only for appliers: the rule
        // admitted its batch at claim and turns only if a begin waits while
        // no local runs (one awaiting its verdict runs). Then no local lock
        // blocks an applier, and every smaller pending tid is certified:
        // the appliers commit them all.
        while !st.core.may_commit(gate) && self.is_alive() {
            if !counted {
                Metrics::inc(&self.metrics.commits_delayed_for_holes);
                counted = true;
            }
            self.wait_state(&mut st);
        }
        if !self.is_alive() {
            drop(st);
            txn.abort(AbortReason::Shutdown);
            return;
        }
        let res = txn.commit_quiet();
        debug_assert!(res.is_ok(), "validated batch failed to commit: {res:?}");
        let entries = batch.iter().map(|e| (e.tid, e.xact, e.last_ns));
        let grew = st.core.commit(entries, begin_ns, &mut self.auditor.reporter(&self.journal));
        self.refresh_gauges(&st);
        // Successors the commits unblocked wait for an idle applier.
        self.unlock_and_wake(st, grew);
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
        // A session awaiting its verdict reads its dropped sender as the
        // crash.
        self.state.lock().core.forget_locals();
        self.cond.notify_all();
        self.apply_cond.notify_all();
    }
}
