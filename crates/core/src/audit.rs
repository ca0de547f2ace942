//! The 1-copy-SI auditor: one checker over one event stream.
//!
//! The paper's correctness argument (Def. 3, Theorem 1 / §4.3.3) rests on
//! run-time invariants every replica must uphold — deterministic
//! certification, first-committer-wins, the hole synchronisation of
//! adjustment 3, and a prune watermark that never overtakes a certificate
//! still needed. [`Checker`] is a pure state machine over the journal's
//! [`EventKind`] vocabulary in which each of those invariants is written
//! exactly once (the table is in DESIGN.md §10). The journal is read four
//! ways:
//!
//! - **online** — [`Auditor`] wraps one checker in a leaf lock; replica
//!   nodes report every protocol transition through [`Auditor::reporter`],
//!   which feeds the checker and the replica's journal ring in one call;
//! - **offline** — [`audit_scraped_journals`] folds the same checker over
//!   journals scraped from other processes;
//! - **model traces** — `sirep-model` counterexamples are `EventKind`
//!   streams and go through [`Checker::observe`] unchanged;
//! - **Def. 3's history** — [`history_from_journals`] turns whole
//!   journals, of one cluster or of several processes, into the schedules,
//!   readsets and writesets `crate::model::check_one_copy_si` decides.
//!
//! The checker never influences the protocol; it only records
//! [`AuditViolation`]s, which [`crate::cluster::ClusterReport`] surfaces and
//! the test suites assert empty.
//!
//! ## Unknown prefix
//!
//! A ring-truncated journal, a stream cut anywhere, and a replica that
//! rejoined from a state transfer ([`EventKind::ReplicaReset`]) are one
//! situation: the replica's stream does not start at its first event. Such
//! a replica starts in *prefix-unknown* state — no pending tids, frontier
//! and watermark at their lower bound, hole state adopted from the first
//! hole event. Every check stays sound there (partial knowledge only
//! produces false negatives) except the upper half of the read-only
//! snapshot rule, which needs the true commit frontier and is suppressed
//! until a reset event supplies it.

use crate::model::{Op, ReplicatedExecution, TxSpec};
use sirep_common::{Event, EventKind, GlobalTid, JournalWriter, ReplicaId, Stage, XactId};
use sirep_gcs::NETWORK_REPLICA;
use sirep_storage::{Key, TxnHandle, WriteSet};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Which invariant a violation trips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditKind {
    /// Replicas disagreed on a transaction's verdict/tid, or a replica's
    /// commit order diverged from the deterministic validation order.
    CommitOrderDivergence,
    /// Two conflicting concurrent transactions both passed certification.
    FirstCommitterWins,
    /// A hole-gated begin (or read-only snapshot) saw a commit-order hole,
    /// or the hole open/close events lost count (adjustment 3 violated →
    /// a snapshot may miss a smaller committed tid).
    HoleSyncViolation,
    /// The `ws_list` prune watermark regressed, or a writeset was delivered
    /// whose certificate lies below the watermark (its validation inputs
    /// were already pruned).
    PruneWatermarkViolation,
}

impl std::fmt::Display for AuditKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AuditKind::CommitOrderDivergence => "commit-order-divergence",
            AuditKind::FirstCommitterWins => "first-committer-wins",
            AuditKind::HoleSyncViolation => "hole-sync-violation",
            AuditKind::PruneWatermarkViolation => "prune-watermark-violation",
        })
    }
}

/// One detected invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditViolation {
    pub kind: AuditKind,
    /// The replica whose event tripped the check.
    pub replica: ReplicaId,
    /// Human-readable specifics (ids, tids, watermarks involved).
    pub detail: String,
}

impl std::fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}: {}", self.replica, self.kind, self.detail)
    }
}

// Telemetry wire forms, so scraped cluster reports can carry violations
// across process boundaries.

sirep_common::wire_codec!(enum AuditKind, "audit kind tag" {
    0 => CommitOrderDivergence,
    1 => FirstCommitterWins,
    2 => HoleSyncViolation,
    3 => PruneWatermarkViolation,
});

sirep_common::wire_codec!(struct AuditViolation { kind, replica, detail });

/// Bounds on remembered verdicts and certified writesets, so a long run
/// cannot grow the checker without limit. Old entries age out FIFO; the
/// invariants are local in tid-space, so aged-out history only narrows the
/// window that is cross-checked, it never causes false positives.
const VERDICT_CAP: usize = 1 << 16;
const FCW_WINDOW: usize = 4096;
/// Stop recording after this many violations — one real bug tends to
/// cascade.
pub const VIOLATION_CAP: usize = 64;

/// FNV-1a, 64 bit: a fixed function of the bytes, so key digests computed
/// in different processes (and read back from scraped journals) compare
/// equal exactly when the tuple ids do, up to 2⁻⁶⁴ collisions.
struct Fnv1a(u64);

impl Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A set of tuple ids as Def. 3's history and the checks see it: their
/// sorted, deduplicated 64-bit hashes. Empty, and not allocated, for an
/// empty set. Each hash is FNV-1a over `(table, key)` — never a `TupleId`'s cached
/// hash, which is seeded per process.
fn digest<'a>(ids: impl Iterator<Item = (&'a str, &'a Key)>) -> Arc<[u64]> {
    let mut keys: Vec<u64> = ids
        .map(|id| {
            let mut h = Fnv1a(0xCBF2_9CE4_8422_2325);
            id.hash(&mut h);
            h.finish()
        })
        .collect();
    if keys.is_empty() {
        return Arc::default();
    }
    keys.sort_unstable();
    keys.dedup();
    keys.into()
}

/// The key digest a passed [`EventKind::ValidationVerdict`] carries.
pub fn key_digest(ws: &WriteSet) -> Arc<[u64]> {
    digest(ws.tuple_ids().map(|id| (&**id.table(), id.key())))
}

/// The readset digest a local's [`EventKind::CertCapture`] or
/// [`EventKind::LocalReadOnly`] carries: a read and a write of one tuple
/// hash alike. Empty unless the database tracks reads
/// (`ClusterConfig::track_history`).
pub fn read_digest(txn: &TxnHandle) -> Arc<[u64]> {
    digest(txn.read_keys().iter().map(|(table, key)| (&**table, key)))
}

/// What the checker knows about a replica's commit-order holes. Hole events
/// mark transitions of the hole *set* between empty and nonempty, tagged
/// with the commit that caused the transition — so an open and its matching
/// close carry different tids by design.
#[derive(Clone, Copy, PartialEq)]
enum Holes {
    /// Prefix unknown: adopt whatever the first hole event implies.
    Unknown,
    Closed,
    /// Open since the commit of this tid.
    Open(GlobalTid),
}

/// The checker's own bookkeeping for one replica's stream.
struct ReplicaState {
    /// Validated-but-uncommitted tids (a subset of the true set when the
    /// prefix is unknown).
    pending: BTreeSet<GlobalTid>,
    /// Highest tid seen committing — the true frontier when
    /// `frontier_exact`, otherwise a lower bound on it.
    max_committed: GlobalTid,
    frontier_exact: bool,
    /// Last tid this replica passed — must strictly increase (validation
    /// follows total order).
    last_passed: GlobalTid,
    /// Latest prune watermark seen (a lower bound on an unknown prefix).
    watermark: GlobalTid,
    holes: Holes,
}

impl ReplicaState {
    /// A replica observed from its very first event.
    fn from_start() -> ReplicaState {
        ReplicaState {
            frontier_exact: true,
            holes: Holes::Closed,
            ..ReplicaState::unknown_prefix()
        }
    }

    /// A replica whose earlier events were not seen.
    fn unknown_prefix() -> ReplicaState {
        ReplicaState {
            pending: BTreeSet::new(),
            max_committed: GlobalTid::ZERO,
            frontier_exact: false,
            last_passed: GlobalTid::ZERO,
            watermark: GlobalTid::ZERO,
            holes: Holes::Unknown,
        }
    }
}

/// The pure 1-copy-SI checker: feed it `(replica, event)` pairs in each
/// replica's journal order and read the violations back. Invariant numbers
/// in the comments refer to the table in DESIGN.md §10.
#[derive(Default)]
pub struct Checker {
    /// First-reported verdict per transaction; later replicas must agree.
    verdicts: HashMap<XactId, Option<GlobalTid>>,
    /// FIFO of verdict keys for eviction.
    verdict_order: VecDeque<XactId>,
    /// Key hash → (tid, cert) of the highest-tid passed writer among the
    /// last [`FCW_WINDOW`] first-reported passes.
    last_writer: HashMap<u64, (GlobalTid, GlobalTid)>,
    /// The passes `last_writer` covers, oldest first, for FIFO retirement.
    fcw_window: VecDeque<(GlobalTid, Arc<[u64]>)>,
    replicas: HashMap<ReplicaId, ReplicaState>,
    violations: Vec<AuditViolation>,
}

impl Checker {
    /// Violations recorded so far (at most [`VIOLATION_CAP`]).
    pub fn violations(&self) -> &[AuditViolation] {
        &self.violations
    }

    /// (Re)start `replica`'s stream. A replica never started explicitly is
    /// taken to be observed from its first event; pass `from_start = false`
    /// for a stream whose prefix was not seen (see the module docs).
    pub fn begin_stream(&mut self, replica: ReplicaId, from_start: bool) {
        let state =
            if from_start { ReplicaState::from_start() } else { ReplicaState::unknown_prefix() };
        self.replicas.insert(replica, state);
    }

    /// `replica`'s stream ended at a quiesced point: its hole set must be
    /// empty (#9) — a dangling open means the tracker, or adjustment 3,
    /// wedged.
    pub fn finish(&mut self, replica: ReplicaId) {
        if let Some(ReplicaState { holes: Holes::Open(tid), .. }) = self.replicas.get(&replica) {
            let detail = format!("holes still open at end of stream (opened by commit {tid})");
            self.violate(AuditKind::HoleSyncViolation, replica, detail);
        }
    }

    /// Check one event of `replica`'s stream.
    pub fn observe(&mut self, replica: ReplicaId, kind: &EventKind) {
        let rs = self.replicas.entry(replica).or_insert_with(ReplicaState::from_start);
        let violation = match *kind {
            // The stream restarts from a state transfer: the frontier is
            // given, everything else is an unknown prefix (transferred
            // entries may still be pending, holes may be open).
            EventKind::ReplicaReset { last_validated, max_committed } => {
                *rs = ReplicaState {
                    max_committed,
                    frontier_exact: true,
                    last_passed: last_validated,
                    ..ReplicaState::unknown_prefix()
                };
                None
            }
            // #7: a hole-gated begin never happens with a validated tid
            // still uncommitted below the commit frontier (adjustment 3).
            EventKind::TxBegin { gated: true, .. } => {
                rs.pending.range(..rs.max_committed).next().map(|hole| {
                    let detail = format!(
                        "local begin while hole open: tid {hole} uncommitted below {}",
                        rs.max_committed
                    );
                    (AuditKind::HoleSyncViolation, detail)
                })
            }
            // #8: a read-only snapshot never claims commits from the future
            // and, when hole-gated, has no uncommitted tid at or below it.
            // Sound although the event is recorded after the fact: the
            // frontier only grows, and tids validated after the begin are
            // all above the snapshot.
            EventKind::LocalReadOnly { xact, snapshot, gated, .. } => {
                if rs.frontier_exact && snapshot > rs.max_committed {
                    let detail = format!(
                        "read-only {xact} claims snapshot {snapshot} above max committed {}",
                        rs.max_committed
                    );
                    Some((AuditKind::HoleSyncViolation, detail))
                } else if let (true, Some(hole)) = (gated, rs.pending.range(..=snapshot).next()) {
                    let detail = format!(
                        "read-only {xact} began on snapshot {snapshot} with tid {hole} \
                         uncommitted below it"
                    );
                    Some((AuditKind::HoleSyncViolation, detail))
                } else {
                    None
                }
            }
            // #5: no writeset is delivered with its certificate below a
            // watermark that already pruned.
            EventKind::TotalOrderDeliver { xact, cert } => (cert < rs.watermark).then(|| {
                let detail = format!(
                    "{xact} delivered with cert {cert} below prune watermark {}",
                    rs.watermark
                );
                (AuditKind::PruneWatermarkViolation, detail)
            }),
            // #6: the prune watermark never regresses.
            EventKind::WsListPruned { watermark, .. } => {
                let prev = rs.watermark;
                rs.watermark = prev.max(watermark);
                (watermark < prev).then(|| {
                    let detail = format!("prune watermark regressed from {prev} to {watermark}");
                    (AuditKind::PruneWatermarkViolation, detail)
                })
            }
            // #9: hole open/close events alternate.
            EventKind::HoleOpened { tid } => {
                let was = std::mem::replace(&mut rs.holes, Holes::Open(tid));
                matches!(was, Holes::Open(_)).then(|| {
                    let detail = format!(
                        "holes opened by commit {tid} while already open: tracker lost a close"
                    );
                    (AuditKind::HoleSyncViolation, detail)
                })
            }
            EventKind::HoleClosed { tid } => {
                let was = std::mem::replace(&mut rs.holes, Holes::Closed);
                (was == Holes::Closed).then(|| {
                    let detail = format!("holes closed by commit {tid} without a recorded open");
                    (AuditKind::HoleSyncViolation, detail)
                })
            }
            EventKind::ValidationVerdict { xact, cert, tid, ref keys } => {
                return self.on_verdict(replica, xact, cert, tid, keys);
            }
            EventKind::Commit { xact, tid } => {
                rs.pending.remove(&tid);
                rs.max_committed = rs.max_committed.max(tid);
                // #3: a commit's tid equals its verdict's tid (skipped when
                // the verdict was not seen).
                self.verdicts.get(&xact).filter(|v| **v != Some(tid)).map(|v| {
                    let detail =
                        format!("{xact} committed as tid {tid}, certification assigned {v:?}");
                    (AuditKind::CommitOrderDivergence, detail)
                })
            }
            // Ungated begins (SRCA-Opt) are allowed to begin in a hole.
            EventKind::TxBegin { gated: false, .. } => None,
            // Def. 3's readset: `history_from_journals` reads it.
            EventKind::CertCapture { .. } => None,
            // A transport stage: ordering is audited via verdict/commit pairs.
            EventKind::Multicast { .. } => None,
            // An aborted transaction never opens a hole or commits.
            EventKind::Abort { .. } => None,
            // Apply duration is exporter material, not lifecycle state.
            EventKind::ApplyStart { .. } | EventKind::ApplyDone { .. } => None,
            // Membership is orthogonal to the per-transaction hole/prune
            // lifecycle.
            EventKind::ViewChange { .. } => None,
            // A client-side event with no replica state transition.
            EventKind::ClientFailover { .. } => None,
            // Chaos bookkeeping, not protocol state.
            EventKind::FaultInjected { .. }
            | EventKind::PartitionStarted { .. }
            | EventKind::PartitionHealed { .. }
            | EventKind::CrashPointFired { .. } => None,
        };
        if let Some((kind, detail)) = violation {
            self.violate(kind, replica, detail);
        }
    }

    /// `replica` certified `xact`: `tid` is `Some` on a pass.
    fn on_verdict(
        &mut self,
        replica: ReplicaId,
        xact: XactId,
        cert: GlobalTid,
        tid: Option<GlobalTid>,
        keys: &Arc<[u64]>,
    ) {
        match self.verdicts.get(&xact) {
            // #1: every replica reaches the first reporter's verdict.
            // Keyed by transaction, not delivery index, so a recovered
            // replica — which skips messages its state transfer covers —
            // compares only what it actually certifies.
            Some(&first) => {
                if first != tid {
                    let detail =
                        format!("verdict for {xact} is {tid:?}, first reporter saw {first:?}");
                    self.violate(AuditKind::CommitOrderDivergence, replica, detail);
                }
            }
            None => {
                if self.verdicts.len() >= VERDICT_CAP {
                    if let Some(old) = self.verdict_order.pop_front() {
                        self.verdicts.remove(&old);
                    }
                }
                self.verdicts.insert(xact, tid);
                self.verdict_order.push_back(xact);
                if let Some(tid) = tid {
                    self.check_first_committer_wins(replica, xact, tid, cert, keys);
                }
            }
        }
        let Some(tid) = tid else { return };
        // #2: validation-pass tids strictly increase per replica.
        let rs = self.replicas.entry(replica).or_insert_with(ReplicaState::from_start);
        if tid <= rs.last_passed {
            let detail = format!(
                "{xact} passed with tid {tid}, not above replica's last tid {}",
                rs.last_passed
            );
            self.violate(AuditKind::CommitOrderDivergence, replica, detail);
        } else {
            rs.last_passed = tid;
            rs.pending.insert(tid);
        }
    }

    /// #4: two passed transactions A (tid `a`) and B (tid `b`, cert `cb`)
    /// with `a < b` are *concurrent* iff `cb < a` — B's certification
    /// predates A. If their writesets also intersect, certification should
    /// have aborted B.
    ///
    /// O(|ws|): each key is probed against its highest-tid writer in the
    /// window only. That loses nothing while passes arrive in tid order
    /// (which #2 guarantees per replica): if B is concurrent with any
    /// earlier writer of a key it is concurrent with the latest one. A
    /// pass arriving below the indexed writer — another journal's older
    /// slice, offline — is still checked against that writer, so the probe
    /// stays sound and merely sees less.
    fn check_first_committer_wins(
        &mut self,
        replica: ReplicaId,
        xact: XactId,
        tid: GlobalTid,
        cert: GlobalTid,
        keys: &Arc<[u64]>,
    ) {
        let mut hit = None;
        for &key in keys.iter() {
            match self.last_writer.entry(key) {
                Entry::Vacant(e) => {
                    e.insert((tid, cert));
                }
                Entry::Occupied(mut e) => {
                    let (wtid, wcert) = *e.get();
                    if (tid > wtid && cert < wtid) || (tid < wtid && wcert < tid) {
                        hit.get_or_insert((wtid, wcert));
                    }
                    if tid > wtid {
                        e.insert((tid, cert));
                    }
                }
            }
        }
        if let Some((wtid, wcert)) = hit {
            let detail = format!(
                "{xact} (tid {tid}, cert {cert}) and tid {wtid} (cert {wcert}) are concurrent \
                 with intersecting writesets, yet both passed"
            );
            self.violate(AuditKind::FirstCommitterWins, replica, detail);
        }
        if self.fcw_window.len() >= FCW_WINDOW {
            if let Some((old, old_keys)) = self.fcw_window.pop_front() {
                for key in old_keys.iter() {
                    if self.last_writer.get(key).is_some_and(|&(wtid, _)| wtid == old) {
                        self.last_writer.remove(key);
                    }
                }
            }
        }
        self.fcw_window.push_back((tid, Arc::clone(keys)));
    }

    fn violate(&mut self, kind: AuditKind, replica: ReplicaId, detail: String) {
        if self.violations.len() < VIOLATION_CAP {
            self.violations.push(AuditViolation { kind, replica, detail });
        }
    }
}

/// Audit journals scraped from other processes (the `sirep-cluster
/// audit`/`report` roles, the benchmark's correctness gate): one entry per
/// scraped journal. A journal whose first `seq` is nonzero lost its oldest
/// events to the ring and is audited as an unknown prefix. Two entries may
/// carry the same [`ReplicaId`] — a restarted node exports a fresh journal
/// — and each entry is its own stream; verdict agreement and
/// first-committer-wins span all of them. Scrape after the deployment has
/// quiesced: a hole legitimately open mid-workload is indistinguishable
/// from a wedged tracker.
pub fn audit_scraped_journals(journals: &[(ReplicaId, Vec<Event>)]) -> Vec<AuditViolation> {
    let mut checker = Checker::default();
    for (replica, events) in journals {
        checker.begin_stream(*replica, events.first().is_none_or(|e| e.seq == 0));
        for e in events {
            checker.observe(*replica, &e.kind);
        }
        checker.finish(*replica);
    }
    checker.violations
}

/// Def. 3's input: every transaction that committed at its origin, with its
/// readset and writeset, and the replicas' begin/commit schedules.
pub type History = (BTreeMap<XactId, TxSpec>, ReplicatedExecution<XactId>);

/// Why journals do not hold a whole history. Def. 3 decided on part of one
/// would pass vacuously, so [`history_from_journals`] refuses instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HistoryGap {
    /// The ring dropped events of this replica's stream.
    Dropped(ReplicaId),
    /// This replica rejoined from a state transfer: its stream does not
    /// hold what the transfer brought.
    Reset(ReplicaId),
    /// Two streams of this replica.
    Duplicate(ReplicaId),
}

/// Def. 3's history from per-replica journals, in journal order:
///
/// - a local begin is its `TxBegin`;
/// - a commit is a `Commit`, or a read-only's `LocalReadOnly`;
/// - a remote transaction begins immediately before its `Commit` — it
///   reads nothing here (Def. 3's `rmap`), and the node begins it at its
///   commit, under the lock;
/// - a local's readset is its `CertCapture`'s or `LocalReadOnly`'s
///   `reads`, its writeset its passed `ValidationVerdict`'s `keys`; an
///   object is a hash of [`read_digest`] / [`key_digest`].
///
/// A transaction that did not commit at its origin is left out everywhere.
/// Streams are keyed by replica, so journals of separate clusters or
/// processes combine; the network's pseudo-replica is skipped. Scrape after
/// the deployment has quiesced, from databases that track reads.
pub fn history_from_journals(journals: &[(ReplicaId, Vec<Event>)]) -> Result<History, HistoryGap> {
    let mut streams = BTreeMap::new();
    for (replica, events) in journals.iter().filter(|(r, _)| *r != NETWORK_REPLICA) {
        if events.iter().enumerate().any(|(i, e)| e.seq != i as u64) {
            return Err(HistoryGap::Dropped(*replica));
        }
        if events.iter().any(|e| matches!(e.kind, EventKind::ReplicaReset { .. })) {
            return Err(HistoryGap::Reset(*replica));
        }
        if streams.insert(*replica, events).is_some() {
            return Err(HistoryGap::Duplicate(*replica));
        }
    }
    let (mut reads, mut writes, mut locality) = (HashMap::new(), HashMap::new(), BTreeMap::new());
    let mut schedules = Vec::new();
    for (k, (replica, events)) in streams.into_iter().enumerate() {
        let mut schedule = Vec::new();
        for e in events {
            match &e.kind {
                EventKind::TxBegin { xact, .. } => schedule.push(Op::Begin(*xact)),
                EventKind::CertCapture { xact, reads: r, .. } => {
                    reads.insert(*xact, r);
                }
                EventKind::ValidationVerdict { xact, tid: Some(_), keys, .. } => {
                    writes.insert(*xact, keys);
                }
                EventKind::Commit { xact, .. } if xact.origin != replica => {
                    schedule.extend([Op::Begin(*xact), Op::Commit(*xact)]);
                }
                EventKind::Commit { xact, .. } => {
                    schedule.push(Op::Commit(*xact));
                    locality.insert(*xact, k);
                }
                EventKind::LocalReadOnly { xact, reads: r, .. } => {
                    reads.insert(*xact, r);
                    schedule.push(Op::Commit(*xact));
                    locality.insert(*xact, k);
                }
                _ => {}
            }
        }
        schedules.push(schedule);
    }
    let objs = |d: Option<&&Arc<[u64]>>| {
        d.into_iter().flat_map(|d| d.iter()).map(|k| format!("{k:016x}")).collect()
    };
    let specs: BTreeMap<XactId, TxSpec> = locality
        .keys()
        .map(|x| (*x, TxSpec { readset: objs(reads.get(x)), writeset: objs(writes.get(x)) }))
        .collect();
    for schedule in &mut schedules {
        schedule.retain(|op| locality.contains_key(&op.txn()));
    }
    Ok((specs, ReplicatedExecution { schedules, locality }))
}

// ======================================================================
// Online wrapper
// ======================================================================

use crate::replica::Report;
use parking_lot::Mutex;

/// The online auditor, shared by every replica of a cluster: one
/// [`Checker`] behind a strict *leaf* lock. Its [`Auditor::reporter`] is
/// invoked while a node's state lock is held and never calls back into a
/// node, so no lock cycle can form.
#[derive(Default)]
pub struct Auditor {
    inner: Mutex<Checker>,
}

impl Auditor {
    pub fn new() -> Auditor {
        Auditor::default()
    }

    /// No violation recorded so far.
    pub fn is_clean(&self) -> bool {
        self.inner.lock().violations().is_empty()
    }

    /// Snapshot of all recorded violations.
    pub fn violations(&self) -> Vec<AuditViolation> {
        self.inner.lock().violations().to_vec()
    }

    /// The one reporting call, a [`Report`] sink — what a replica core's
    /// transitions report to, and the node's shell too: each event is
    /// checked as the next of `journal`'s replica, then appended to the
    /// journal ring with the stages it ends
    /// ([`JournalWriter::record_ending`]), which stamps it.
    pub fn reporter<'a>(&'a self, journal: &'a mut JournalWriter) -> Reporter<'a> {
        Reporter { auditor: self, journal }
    }
}

/// [`Auditor::reporter`]'s sink: the auditor and one replica's journal
/// writer.
pub struct Reporter<'a> {
    auditor: &'a Auditor,
    journal: &'a mut JournalWriter,
}

impl Report for Reporter<'_> {
    fn report(&mut self, kind: EventKind, ends: &[(Stage, u64)]) -> u64 {
        self.auditor.inner.lock().observe(self.journal.replica(), &kind);
        self.journal.record_ending(kind, ends)
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    use sirep_storage::{Key, WsOp};

    /// The table's definition of #4, literally: B is flagged iff some pass A
    /// among the `FCW_WINDOW` before it has `cert_b < tid_a < tid_b` and a
    /// key in common.
    fn pairwise(history: &[(u64, u64, Vec<u64>)], cert: u64, keys: &[u64]) -> bool {
        let window = &history[history.len().saturating_sub(FCW_WINDOW)..];
        window.iter().any(|(tid, _, ks)| cert < *tid && ks.iter().any(|k| keys.contains(k)))
    }

    /// The O(|ws|) key index flags exactly the passes the pairwise
    /// definition flags, on random pass sequences long enough that the
    /// window retires entries (hot and cold keys, stale and fresh certs).
    #[test]
    fn indexed_first_committer_wins_equals_pairwise() {
        let mut rng = SmallRng::seed_from_u64(0x5EED);
        for round in 0..3 {
            let mut checker = Checker::default();
            let mut history: Vec<(u64, u64, Vec<u64>)> = Vec::new();
            let key_space = [16, 512, 100_000][round];
            let (mut flagged, total) = (0, FCW_WINDOW * 2 + 500);
            for tid in 1..=total as u64 {
                // Mostly fresh certs, sometimes far behind (even behind the
                // window) — a certifier that missed a lot.
                let lag =
                    if rng.gen_bool(0.1) { rng.gen_range(0..6000) } else { rng.gen_range(0..4) };
                let cert = (tid - 1).saturating_sub(lag);
                let mut keys: Vec<u64> =
                    (0..rng.gen_range(1..6)).map(|_| rng.gen_range(0..key_space)).collect();
                keys.sort_unstable();
                keys.dedup();
                let expect = pairwise(&history, cert, &keys);
                let xact = XactId::new(ReplicaId::new(0), tid);
                let digest: Arc<[u64]> = keys.as_slice().into();
                checker.check_first_committer_wins(
                    ReplicaId::new(0),
                    xact,
                    GlobalTid::new(tid),
                    GlobalTid::new(cert),
                    &digest,
                );
                let got = !std::mem::take(&mut checker.violations).is_empty();
                assert_eq!(got, expect, "round {round} tid {tid} cert {cert} keys {keys:?}");
                flagged += usize::from(got);
                history.push((tid, cert, keys));
            }
            assert!(
                flagged > 0 && flagged < total,
                "round {round}: degenerate ({flagged}/{total})"
            );
            // Bounded state: the index holds nothing the window does not.
            assert_eq!(checker.fcw_window.len(), FCW_WINDOW);
            let live: BTreeSet<u64> =
                checker.fcw_window.iter().flat_map(|(_, ks)| ks.iter().copied()).collect();
            assert!(checker.last_writer.keys().all(|k| live.contains(k)));
        }
    }

    #[test]
    fn key_digest_is_a_sorted_set_of_stable_hashes() {
        let ws = |keys: &[i64]| {
            let mut w = WriteSet::new();
            for &k in keys {
                w.push(Arc::from("t"), Key::single(k), WsOp::Delete);
            }
            w
        };
        let a = key_digest(&ws(&[3, 1, 2, 1]));
        assert_eq!(a.len(), 3);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "sorted, no duplicates");
        // Insertion order does not matter: a function of the tuple-id set.
        assert_eq!(a, key_digest(&ws(&[2, 3, 1])));
        let one = key_digest(&ws(&[1]));
        assert!(a.contains(&one[0]));
        assert_eq!(key_digest(&ws(&[])).len(), 0);
        // Same key in another table is another tuple.
        let mut other = WriteSet::new();
        other.push(Arc::from("u"), Key::single(1), WsOp::Delete);
        assert_ne!(key_digest(&other), one);
    }
}
