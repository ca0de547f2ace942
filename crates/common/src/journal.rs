//! Protocol event journal: a bounded, append-only ring of typed events,
//! and the one clock of the observability layer.
//!
//! The journal answers *"what did the protocol do, in what order?"* — every
//! replica keeps a fixed-capacity ring of [`Event`]s (begin, certification
//! capture, multicast, total-order delivery, validation verdict, hole
//! open/close, ws_list prune, commit/abort, apply, view change), each stamped
//! with the source replica, a per-replica sequence number, and a nanosecond
//! offset from a shared epoch so timelines from different replicas align.
//!
//! It also answers *"where did this transaction's time go?"*: every stamp
//! it hands out ([`JournalWriter::record`]'s return value,
//! [`Journal::now_ns`]) is on that one timeline, and a [`Stage`] is the gap
//! between two stamps. The ring holds one histogram per stage; an event that
//! ends stages records them in the same ring-lock hold
//! ([`JournalWriter::record_ending`]), and a stage that ends where no event
//! is recorded is stamped by [`Journal::stage`]. [`Journal::stages`] is what
//! `NodeStatus` reports.
//!
//! A ring has one [`JournalWriter`], the only handle that appends events,
//! and any number of [`Journal`]s, which read it, stamp and sample stages.
//! The writer is not `Clone` and appends through `&mut self`, so events
//! are in the order of whoever owns it: a replica keeps it in the state its
//! lock guards, the fault plan in the group's.
//!
//! The ring is deliberately lossy: once `capacity` events are held, the
//! oldest is dropped and [`Journal::dropped`] counts it (stage histograms
//! keep every sample). Recording is one short mutex hold with no
//! allocation (the non-`Copy` payloads, a verdict's key digest and a
//! local's readset digest, are shared `Arc`s), cheap enough for the hot
//! commit path; consumers take a point-in-time [`snapshot`] (oldest
//! first) and render it — see the Perfetto exporter in
//! `sirep_core::export` — or fold the 1-copy-SI checker of
//! `sirep_core::audit` over it, or build Def. 3's history from it.
//!
//! [`snapshot`]: Journal::snapshot

use crate::ids::{GlobalTid, ReplicaId, XactId};
use crate::trace::{Stage, StageSnapshot};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// What a seeded fault injector did to one delivery copy.  Recorded in
/// [`EventKind::FaultInjected`] and in the GCS fault log that the chaos
/// harness fingerprints for seed-replay determinism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// First delivery attempt dropped; the copy arrives later via the
    /// simulated retransmission (uniform delivery is preserved).
    Drop,
    /// The copy was delayed beyond the configured network latency.
    ExtraDelay,
}

impl FaultKind {
    /// Stable lowercase name (journal rendering, fingerprint files).
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::ExtraDelay => "extra_delay",
        }
    }
}

/// A named crash-point: a place in the protocol where the chaos plan can
/// make a replica crash-stop the instant execution reaches it.  The names
/// follow the failover cases of the paper's §5.4.  `Ord` so crash-plan
/// containers can be deterministic `BTreeMap`s (declaration order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CrashPoint {
    /// In `commit_local`, before the writeset is handed to the multicast:
    /// the transaction dies with its origin (§5.4 case 1/2).
    BeforeMulticast,
    /// In `commit_local`, after the writeset was multicast but before the
    /// origin commits or acks — the classic in-doubt window (§5.4 case 3).
    AfterMulticastBeforeLocalCommit,
    /// On the thread that claimed a delivered, validated remote writeset
    /// (an applier or the delivery thread), before it commits locally.
    AfterDeliverBeforeCommit,
    /// In `Cluster::recover`, after the donor produced its state-transfer
    /// snapshot but before the joiner installs it — the donor dies and
    /// recovery must restart with another donor.
    MidStateTransfer,
}

impl CrashPoint {
    /// Stable lowercase name (journal rendering, chaos plan display).
    pub fn name(&self) -> &'static str {
        match self {
            CrashPoint::BeforeMulticast => "before_multicast",
            CrashPoint::AfterMulticastBeforeLocalCommit => "after_multicast_before_local_commit",
            CrashPoint::AfterDeliverBeforeCommit => "after_deliver_before_commit",
            CrashPoint::MidStateTransfer => "mid_state_transfer",
        }
    }
}

/// A typed protocol event. Variants follow one writeset through the SRCA-Rep
/// pipeline, plus the protocol-state events (holes, pruning, membership)
/// that the paper's §4 adjustments revolve around. The stream is
/// self-describing: everything the 1-copy-SI checker (`sirep_core::audit`)
/// needs is in the payloads, so the same checker runs online, over scraped
/// journals and over model traces.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A local transaction began. `gated` says the begin waited out every
    /// commit-order hole first (adjustment 3: true under SRCA-Rep, false
    /// under SRCA-Opt, which forgoes the wait by design).
    TxBegin { xact: XactId, gated: bool },
    /// Commit requested: the certification watermark (`ws_list.last_tid`)
    /// was captured under the state lock. `reads` is the transaction's
    /// readset digest (hashed like a verdict's `keys`), empty unless the
    /// database tracks reads — what Def. 3's history needs of a local.
    CertCapture { xact: XactId, cert: GlobalTid, reads: Arc<[u64]> },
    /// The writeset was handed to the total-order multicast.
    Multicast { xact: XactId },
    /// The writeset came back in total order.
    TotalOrderDeliver { xact: XactId, cert: GlobalTid },
    /// Certification outcome against watermark `cert`: `tid` is the dense
    /// global commit id assigned on a pass, `None` on a validation abort.
    /// `keys` is the writeset's key digest — the sorted 64-bit hashes of its
    /// tuple ids, empty on an abort — which is what lets first-committer-wins
    /// be re-checked from the journal alone.
    ValidationVerdict { xact: XactId, cert: GlobalTid, tid: Option<GlobalTid>, keys: Arc<[u64]> },
    /// A commit-order hole opened: `tid` committed ahead of a smaller
    /// validated-but-uncommitted tid.
    HoleOpened { tid: GlobalTid },
    /// The last open hole drained; local begins may proceed again.
    HoleClosed { tid: GlobalTid },
    /// The certification list was pruned up to `watermark`.
    WsListPruned { watermark: GlobalTid, removed: u64 },
    /// The transaction committed at this replica with global id `tid`.
    Commit { xact: XactId, tid: GlobalTid },
    /// The transaction aborted at this replica (validation or local).
    Abort { xact: XactId },
    /// A remote writeset started applying at this replica.
    ApplyStart { xact: XactId, tid: GlobalTid },
    /// A remote writeset finished applying at this replica.
    ApplyDone { xact: XactId, tid: GlobalTid },
    /// Membership changed; `members` live replicas remain.
    ViewChange { members: u64 },
    /// A driver connection failed over to this replica after `from`
    /// crashed (§5.4 automatic failover).
    ClientFailover { from: ReplicaId },
    /// The seeded fault injector perturbed delivery copy `msg` (the global
    /// fault-plan message index) bound for member `member`.
    FaultInjected { fault: FaultKind, msg: u64, member: u64 },
    /// A network partition started; `isolated` members are cut off.
    PartitionStarted { isolated: u64 },
    /// The partition healed; `flushed` held delivery copies were released.
    PartitionHealed { flushed: u64 },
    /// An armed crash-point fired and this replica crash-stopped there.
    CrashPointFired { point: CrashPoint },
    /// A read-only transaction ran entirely against the local snapshot
    /// (`snapshot` = the begin-time commit watermark): no multicast, no
    /// certification, no sequencer round-trip. `gated` as in
    /// [`EventKind::TxBegin`], `reads` as in [`EventKind::CertCapture`].
    LocalReadOnly { xact: XactId, snapshot: GlobalTid, gated: bool, reads: Arc<[u64]> },
    /// This replica (re)joined from a recovery state transfer; its stream
    /// restarts here with certification at `last_validated` and the commit
    /// frontier at `max_committed` (transferred entries may still be
    /// pending below it).
    ReplicaReset { last_validated: GlobalTid, max_committed: GlobalTid },
}

impl EventKind {
    /// Stable lowercase name (Perfetto event names, Prometheus labels).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::TxBegin { .. } => "tx_begin",
            EventKind::CertCapture { .. } => "cert_capture",
            EventKind::Multicast { .. } => "multicast",
            EventKind::TotalOrderDeliver { .. } => "total_order_deliver",
            EventKind::ValidationVerdict { .. } => "validation_verdict",
            EventKind::HoleOpened { .. } => "hole_opened",
            EventKind::HoleClosed { .. } => "hole_closed",
            EventKind::WsListPruned { .. } => "ws_list_pruned",
            EventKind::Commit { .. } => "commit",
            EventKind::Abort { .. } => "abort",
            EventKind::ApplyStart { .. } => "apply_start",
            EventKind::ApplyDone { .. } => "apply_done",
            EventKind::ViewChange { .. } => "view_change",
            EventKind::ClientFailover { .. } => "client_failover",
            EventKind::FaultInjected { .. } => "fault_injected",
            EventKind::PartitionStarted { .. } => "partition_started",
            EventKind::PartitionHealed { .. } => "partition_healed",
            EventKind::CrashPointFired { .. } => "crash_point_fired",
            EventKind::LocalReadOnly { .. } => "local_read_only",
            EventKind::ReplicaReset { .. } => "replica_reset",
        }
    }

    /// The transaction this event concerns, when it concerns one.
    pub fn xact(&self) -> Option<XactId> {
        match *self {
            EventKind::TxBegin { xact, .. }
            | EventKind::CertCapture { xact, .. }
            | EventKind::Multicast { xact }
            | EventKind::TotalOrderDeliver { xact, .. }
            | EventKind::ValidationVerdict { xact, .. }
            | EventKind::Commit { xact, .. }
            | EventKind::Abort { xact }
            | EventKind::ApplyStart { xact, .. }
            | EventKind::ApplyDone { xact, .. }
            | EventKind::LocalReadOnly { xact, .. } => Some(xact),
            EventKind::HoleOpened { .. }
            | EventKind::HoleClosed { .. }
            | EventKind::WsListPruned { .. }
            | EventKind::ViewChange { .. }
            | EventKind::ClientFailover { .. }
            | EventKind::FaultInjected { .. }
            | EventKind::PartitionStarted { .. }
            | EventKind::PartitionHealed { .. }
            | EventKind::CrashPointFired { .. }
            | EventKind::ReplicaReset { .. } => None,
        }
    }
}

/// One journal record: what happened, where, and when.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Per-replica sequence number, dense from 0 (gaps only via `dropped`).
    pub seq: u64,
    /// Nanoseconds since the journal's epoch (shared cluster-wide so events
    /// from different replicas sort onto one timeline).
    pub at_ns: u64,
    /// The replica that recorded the event.
    pub replica: ReplicaId,
    pub kind: EventKind,
}

/// Default ring capacity: enough for ~1k transactions' worth of events.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 8192;

// ======================================================================
// Wire forms (telemetry journal export).
// ======================================================================

crate::wire_codec!(enum FaultKind, "fault kind tag" {
    0 => Drop,
    // Tag 1 was `Duplicate`, which injected nothing; it stays retired.
    2 => ExtraDelay,
});

crate::wire_codec!(enum CrashPoint, "crash point tag" {
    0 => BeforeMulticast,
    1 => AfterMulticastBeforeLocalCommit,
    2 => AfterDeliverBeforeCommit,
    3 => MidStateTransfer,
});

crate::wire_codec!(enum EventKind, "event kind tag" {
    0 => TxBegin { xact, gated },
    1 => CertCapture { xact, cert, reads },
    2 => Multicast { xact },
    3 => TotalOrderDeliver { xact, cert },
    4 => ValidationVerdict { xact, cert, tid, keys },
    5 => HoleOpened { tid },
    6 => HoleClosed { tid },
    7 => WsListPruned { watermark, removed },
    8 => Commit { xact, tid },
    9 => Abort { xact },
    10 => ApplyStart { xact, tid },
    11 => ApplyDone { xact, tid },
    12 => ViewChange { members },
    13 => ClientFailover { from },
    14 => FaultInjected { fault, msg, member },
    15 => PartitionStarted { isolated },
    16 => PartitionHealed { flushed },
    17 => CrashPointFired { point },
    18 => LocalReadOnly { xact, snapshot, gated, reads },
    19 => ReplicaReset { last_validated, max_committed },
});

crate::wire_codec!(struct Event { seq, at_ns, replica, kind });

/// The read side of one replica's bounded ring of protocol [`Event`]s: its
/// clock, its stage samples and copies of what it holds. Clones share the
/// ring; only its [`JournalWriter`] appends events.
#[derive(Debug, Clone)]
pub struct Journal {
    replica: ReplicaId,
    epoch: Instant,
    ring: Arc<Mutex<Ring>>,
}

#[derive(Debug)]
struct Ring {
    buf: VecDeque<Event>,
    cap: usize,
    next_seq: u64,
    dropped: u64,
    stages: StageSnapshot,
}

impl Journal {
    /// Nanoseconds since the epoch, now: a stamp on the events' timeline.
    pub fn now_ns(&self) -> u64 {
        self.ns_at(Instant::now())
    }

    /// The stamp of instant `at` (0 if it precedes the epoch).
    pub fn ns_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos().min(u64::MAX as u128) as u64
    }

    /// Record a `stage` sample from stamp `since` to now, for a stage that
    /// ends where no event is recorded; returns the new stamp.
    pub fn stage(&self, stage: Stage, since: u64) -> u64 {
        let mut ring = self.ring.lock();
        let now = self.now_ns();
        ring.stages.record_ns(stage, now.saturating_sub(since));
        now
    }

    /// Point-in-time copy of the per-stage latency histograms.
    pub fn stages(&self) -> StageSnapshot {
        self.ring.lock().stages.clone()
    }

    /// Point-in-time copy of the retained events, oldest first.
    pub fn snapshot(&self) -> Vec<Event> {
        self.ring.lock().buf.iter().cloned().collect()
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.ring.lock().buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.ring.lock().dropped
    }

    /// The replica this journal records for.
    pub fn replica(&self) -> ReplicaId {
        self.replica
    }
}

/// The one handle that appends events to a journal ring. It reads the ring
/// as a [`Journal`] too (`Deref`).
#[derive(Debug)]
pub struct JournalWriter {
    journal: Journal,
}

impl JournalWriter {
    /// A journal with its own epoch (= now) and the default capacity.
    pub fn new(replica: ReplicaId) -> JournalWriter {
        JournalWriter::with_epoch(replica, Instant::now(), DEFAULT_JOURNAL_CAPACITY)
    }

    /// A journal stamping events relative to a shared `epoch` — pass the
    /// same instant to every replica's journal and their snapshots merge
    /// onto one timeline.
    pub fn with_epoch(replica: ReplicaId, epoch: Instant, capacity: usize) -> JournalWriter {
        let cap = capacity.max(1);
        let ring = Ring {
            buf: VecDeque::with_capacity(cap),
            cap,
            next_seq: 0,
            dropped: 0,
            stages: StageSnapshot::default(),
        };
        JournalWriter { journal: Journal { replica, epoch, ring: Arc::new(Mutex::new(ring)) } }
    }

    /// Append an event stamped now; returns the stamp.
    pub fn record(&mut self, kind: EventKind) -> u64 {
        self.record_ending(kind, &[])
    }

    /// Append an event stamped now and, in the same ring-lock hold, record
    /// each `(stage, since)` as a sample from stamp `since` to this event's.
    /// Returns the stamp. Events are appended by one owner at a time, so
    /// `at_ns` is non-decreasing in `seq` — the Perfetto exporter would turn
    /// a decreasing pair into a negative-length span.
    pub fn record_ending(&mut self, kind: EventKind, ends: &[(Stage, u64)]) -> u64 {
        let mut ring = self.journal.ring.lock();
        let at_ns = self.journal.now_ns();
        for &(stage, since) in ends {
            ring.stages.record_ns(stage, at_ns.saturating_sub(since));
        }
        let seq = ring.next_seq;
        ring.next_seq += 1;
        if ring.buf.len() == ring.cap {
            ring.buf.pop_front();
            ring.dropped += 1;
        }
        ring.buf.push_back(Event { seq, at_ns, replica: self.journal.replica, kind });
        at_ns
    }
}

impl std::ops::Deref for JournalWriter {
    type Target = Journal;

    fn deref(&self) -> &Journal {
        &self.journal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(k: u64) -> ReplicaId {
        ReplicaId::new(k)
    }

    #[test]
    fn events_are_sequenced_and_stamped() {
        let mut j = JournalWriter::new(r(3));
        let a = XactId::new(r(3), 1);
        j.record(EventKind::TxBegin { xact: a, gated: true });
        j.record(EventKind::CertCapture { xact: a, cert: GlobalTid::ZERO, reads: Arc::default() });
        j.record(EventKind::Commit { xact: a, tid: GlobalTid::new(1) });
        let snap = j.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0].seq, 0);
        assert_eq!(snap[2].seq, 2);
        assert!(snap.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        assert!(snap.iter().all(|e| e.replica == r(3)));
        assert_eq!(snap[0].kind.xact(), Some(a));
        assert_eq!(snap[0].kind.name(), "tx_begin");
        assert_eq!(j.dropped(), 0);
    }

    #[test]
    fn ring_drops_oldest_when_full() {
        let mut j = JournalWriter::with_epoch(r(0), Instant::now(), 4);
        for seq in 0..10 {
            j.record(EventKind::TxBegin { xact: XactId::new(r(0), seq), gated: true });
        }
        assert_eq!(j.len(), 4);
        assert_eq!(j.dropped(), 6);
        let snap = j.snapshot();
        // The survivors are the newest four, sequence numbers intact.
        assert_eq!(snap.first().unwrap().seq, 6);
        assert_eq!(snap.last().unwrap().seq, 9);
    }

    /// Threads that take turns on one writer (a node's threads do, through
    /// its lock) store timestamps that never decrease in `seq`, while
    /// readers sample stages on the same ring.
    #[test]
    fn recorders_taking_turns_keep_timestamps_monotone_in_seq() {
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 20_000;
        let writer =
            JournalWriter::with_epoch(r(0), Instant::now(), (THREADS * PER_THREAD) as usize);
        let j = Journal::clone(&writer);
        let writer = Mutex::new(writer);
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (writer, j, start) = (&writer, &j, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..PER_THREAD {
                        writer.lock().record(EventKind::Multicast { xact: XactId::new(r(t), i) });
                        j.stage(Stage::Execute, 0);
                    }
                });
            }
        });
        let snap = j.snapshot();
        assert_eq!(snap.len() as u64, THREADS * PER_THREAD);
        for w in snap.windows(2) {
            assert_eq!(w[1].seq, w[0].seq + 1);
            assert!(w[0].at_ns <= w[1].at_ns, "at_ns went backwards at seq {}", w[1].seq);
        }
    }

    /// A stage is the gap between two stamps of the journal's own clock,
    /// recorded when the later one is stamped.
    #[test]
    fn stages_are_gaps_between_stamps() {
        let mut j = JournalWriter::new(r(0));
        let x = XactId::new(r(0), 1);
        let begin = j.record(EventKind::TxBegin { xact: x, gated: true });
        assert_eq!(j.snapshot()[0].at_ns, begin);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let requested = j.stage(Stage::Execute, begin);
        assert!(requested >= begin + 2_000_000);
        let done = j.record_ending(
            EventKind::LocalReadOnly {
                xact: x,
                snapshot: GlobalTid::ZERO,
                gated: true,
                reads: Arc::default(),
            },
            &[(Stage::Commit, requested), (Stage::Total, begin)],
        );
        assert_eq!(j.snapshot()[1].at_ns, done);
        assert!(j.now_ns() >= done);
        let stages = j.stages();
        for (stage, ns) in [
            (Stage::Execute, requested - begin),
            (Stage::Commit, done - requested),
            (Stage::Total, done - begin),
        ] {
            assert_eq!(stages.count(stage), 1);
            let mut one = StageSnapshot::default();
            one.record_ns(stage, ns);
            assert_eq!(stages.median(stage).to_bits(), one.median(stage).to_bits(), "{stage}");
        }
        assert_eq!(stages.count(Stage::BeginWait), 0);
    }

    #[test]
    fn shared_epoch_aligns_replicas() {
        let epoch = Instant::now();
        let mut j0 = JournalWriter::with_epoch(r(0), epoch, 16);
        let mut j1 = JournalWriter::with_epoch(r(1), epoch, 16);
        j0.record(EventKind::ViewChange { members: 2 });
        j1.record(EventKind::ViewChange { members: 2 });
        let a = j0.snapshot()[0].at_ns;
        let b = j1.snapshot()[0].at_ns;
        // Recorded back-to-back against one epoch: within a second for sure.
        assert!(a.abs_diff(b) < 1_000_000_000, "{a} vs {b}");
    }

    #[test]
    fn state_events_carry_no_xact() {
        let e = EventKind::WsListPruned { watermark: GlobalTid::new(7), removed: 3 };
        assert_eq!(e.xact(), None);
        assert_eq!(e.name(), "ws_list_pruned");
    }

    #[test]
    fn fault_events_are_named_and_carry_no_xact() {
        let cases = [
            (
                EventKind::FaultInjected { fault: FaultKind::Drop, msg: 3, member: 1 },
                "fault_injected",
            ),
            (EventKind::PartitionStarted { isolated: 2 }, "partition_started"),
            (EventKind::PartitionHealed { flushed: 5 }, "partition_healed"),
            (
                EventKind::CrashPointFired { point: CrashPoint::MidStateTransfer },
                "crash_point_fired",
            ),
        ];
        for (kind, name) in cases {
            assert_eq!(kind.name(), name);
            assert_eq!(kind.xact(), None);
        }
        assert_eq!(FaultKind::ExtraDelay.name(), "extra_delay");
        assert_eq!(
            CrashPoint::AfterMulticastBeforeLocalCommit.name(),
            "after_multicast_before_local_commit"
        );
    }

    use crate::wire::{Wire, WireError};
    use proptest::prelude::*;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: &T) {
        let bytes = v.to_wire();
        let back = T::from_wire(&bytes).expect("decode");
        assert_eq!(&back, v);
        assert_eq!(back.to_wire(), bytes, "re-encode must be bit-identical");
    }

    /// `v`'s encoding as hex: the golden assertions pin the layout, which
    /// a round trip alone cannot (it passes when both sides change).
    fn hex<T: Wire>(v: &T) -> String {
        v.to_wire().iter().map(|b| format!("{b:02x}")).collect()
    }

    /// One instance of every `EventKind` variant, for exhaustive wire tests.
    fn all_kinds() -> Vec<EventKind> {
        let x = XactId::new(r(2), 9);
        let t = GlobalTid::new(41);
        vec![
            EventKind::TxBegin { xact: x, gated: true },
            EventKind::CertCapture { xact: x, cert: t, reads: Arc::from([5u64]) },
            EventKind::Multicast { xact: x },
            EventKind::TotalOrderDeliver { xact: x, cert: t },
            EventKind::ValidationVerdict {
                xact: x,
                cert: GlobalTid::new(40),
                tid: Some(t),
                keys: Arc::from([3u64, 7, u64::MAX]),
            },
            EventKind::ValidationVerdict { xact: x, cert: t, tid: None, keys: Arc::from([]) },
            EventKind::HoleOpened { tid: t },
            EventKind::HoleClosed { tid: t },
            EventKind::WsListPruned { watermark: t, removed: 3 },
            EventKind::Commit { xact: x, tid: t },
            EventKind::Abort { xact: x },
            EventKind::ApplyStart { xact: x, tid: t },
            EventKind::ApplyDone { xact: x, tid: t },
            EventKind::ViewChange { members: 3 },
            EventKind::ClientFailover { from: r(1) },
            EventKind::FaultInjected { fault: FaultKind::ExtraDelay, msg: 17, member: 2 },
            EventKind::PartitionStarted { isolated: 1 },
            EventKind::PartitionHealed { flushed: 8 },
            EventKind::CrashPointFired { point: CrashPoint::AfterDeliverBeforeCommit },
            EventKind::LocalReadOnly { xact: x, snapshot: t, gated: false, reads: Arc::from([]) },
            EventKind::ReplicaReset { last_validated: t, max_committed: GlobalTid::new(39) },
        ]
    }

    #[test]
    fn wire_round_trips_every_event_kind() {
        for kind in all_kinds() {
            round_trip(&kind);
            round_trip(&Event { seq: 7, at_ns: 123_456_789, replica: r(2), kind });
        }
        let golden = [
            "000200000000000000090000000000000001",
            "01020000000000000009000000000000002900000000000000010000000500000000000000",
            "0202000000000000000900000000000000",
            "03020000000000000009000000000000002900000000000000",
            "040200000000000000090000000000000028000000000000000129000000000000000300000003000000000000000700000000000000ffffffffffffffff",
            "040200000000000000090000000000000029000000000000000000000000",
            "052900000000000000",
            "062900000000000000",
            "0729000000000000000300000000000000",
            "08020000000000000009000000000000002900000000000000",
            "0902000000000000000900000000000000",
            "0a020000000000000009000000000000002900000000000000",
            "0b020000000000000009000000000000002900000000000000",
            "0c0300000000000000",
            "0d0100000000000000",
            "0e0211000000000000000200000000000000",
            "0f0100000000000000",
            "100800000000000000",
            "1102",
            "120200000000000000090000000000000029000000000000000000000000",
            "1329000000000000002700000000000000",
        ];
        assert_eq!(all_kinds().iter().map(hex).collect::<Vec<_>>(), golden);
        let event =
            Event { seq: 7, at_ns: 123_456_789, replica: r(2), kind: all_kinds()[2].clone() };
        assert_eq!(
            hex(&event),
            "070000000000000015cd5b070000000002000000000000000202000000000000000900000000000000"
        );
        assert_eq!(hex(&FaultKind::Drop) + &hex(&FaultKind::ExtraDelay), "0002");
        let points = [
            CrashPoint::BeforeMulticast,
            CrashPoint::AfterMulticastBeforeLocalCommit,
            CrashPoint::AfterDeliverBeforeCommit,
            CrashPoint::MidStateTransfer,
        ];
        assert_eq!(points.map(|p| hex(&p)).concat(), "00010203");
        round_trip(&vec![
            Event { seq: 0, at_ns: 1, replica: r(0), kind: EventKind::ViewChange { members: 1 } },
            Event {
                seq: 1,
                at_ns: 2,
                replica: r(0),
                kind: EventKind::TxBegin { xact: XactId::new(r(0), 0), gated: false },
            },
        ]);
    }

    #[test]
    fn wire_corrupt_tags_rejected() {
        assert_eq!(EventKind::from_wire(&[20]), Err(WireError::Corrupt("event kind tag")));
        // Tag 1 was a duplicate, which injected nothing; it is retired.
        for tag in [1, 3] {
            assert_eq!(FaultKind::from_wire(&[tag]), Err(WireError::Corrupt("fault kind tag")));
        }
        assert_eq!(CrashPoint::from_wire(&[4]), Err(WireError::Corrupt("crash point tag")));
    }

    #[test]
    fn wire_truncation_rejected() {
        for kind in all_kinds() {
            let bytes = Event { seq: 1, at_ns: 2, replica: r(1), kind: kind.clone() }.to_wire();
            for cut in 0..bytes.len() {
                assert!(Event::from_wire(&bytes[..cut]).is_err(), "{kind:?} cut at {cut}");
            }
        }
    }

    proptest! {
        #[test]
        fn prop_event_random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
            let _ = Event::from_wire(&bytes);
            let _ = EventKind::from_wire(&bytes);
            let _ = Vec::<Event>::from_wire(&bytes);
        }
    }
}
