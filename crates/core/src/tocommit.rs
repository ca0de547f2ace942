//! The `tocommit` queue (Fig. 4's `tocommit_queue_k`) with incremental
//! conflict scheduling.
//!
//! The paper's adjustment 2 lets any queued writeset with no conflicting
//! predecessor proceed. Re-deriving eligibility with a pairwise scan is
//! O(n²·|ws|) under the node lock on every applier wakeup; this structure
//! keeps eligibility incrementally instead:
//!
//! - [`TocommitQueue::push`] charges the new entry one *blocker* per
//!   (predecessor, shared key) edge, read off a per-key waiter index —
//!   O(|ws| + edges);
//! - [`TocommitQueue::remove`] (called as entries commit) walks the removed
//!   entry's keys, decrements each successor edge once, and moves entries
//!   whose count hits zero onto the ready set — O(|ws| + edges);
//! - appliers pop the smallest-tid ready entry in O(log n), the same entry
//!   a scan would have picked first, so hole dynamics are unchanged.
//!
//! The waiter index doubles as the adjustment-1 local validation test:
//! a candidate writeset conflicts with the queue iff one of its keys has a
//! non-empty waiter list — O(|ws|) instead of O(n·|ws|). It is the one hash
//! map here, an `IdMap` probed by tuple id only (on the id's cached hash),
//! so nothing the queue decides depends on its iteration order.
//!
//! The queue's entries are the replica's one set of validated, uncommitted
//! tids, so it also keeps the commit frontier and reads §4.3.3's
//! commit-order **holes** off them. With adjustment 2, transactions may
//! commit in an order different from validation order; a queued tid below
//! the highest committed one is a hole. A begin that sees a hole could
//! observe tid `j` but not `i < j`, which is how SRCA-Opt loses 1-copy-SI
//! (§4.3.2). The smallest queued tid above the frontier never creates a new
//! hole, so under the commit rule (`ReplicaCore::may_commit`) holes always
//! drain.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::msg::XactId;
use sirep_common::GlobalTid;
use sirep_storage::{IdMap, WriteSet};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound::Excluded;
use std::sync::Arc;

/// An entry of `tocommit_queue_k`.
#[derive(Clone)]
pub struct QEntry {
    pub tid: GlobalTid,
    pub(crate) xact: XactId,
    pub(crate) ws: Arc<WriteSet>,
    /// A thread has claimed this entry (is applying / committing it).
    pub(crate) running: bool,
    /// Conflict edges to entries with smaller tids still in the queue —
    /// one per (predecessor, shared key) pair. The entry is eligible for
    /// an applier exactly when this reaches zero; [`TocommitQueue::remove`]
    /// decrements it as predecessors commit.
    blockers: usize,
    /// Journal stamp of the entry's delivery, where its `validate_queue`
    /// stage starts (unused for a running local entry).
    pub(crate) last_ns: u64,
    /// Given back by a claimer that could not apply it without waiting.
    pub(crate) handed_back: bool,
}

impl QEntry {
    /// An entry as delivery queues it; `running`: its session thread commits
    /// it, no applier may claim it.
    pub fn new(tid: GlobalTid, xact: XactId, ws: Arc<WriteSet>, running: bool) -> QEntry {
        QEntry { tid, xact, ws, running, blockers: 0, last_ns: 0, handed_back: false }
    }
}

/// The queue: entries by tid, the indexes that make claims O(log n), and
/// the commit frontier the holes are measured against.
#[derive(Clone, Default)]
pub struct TocommitQueue {
    /// Validated, not yet committed at this replica, in tid order.
    entries: BTreeMap<GlobalTid, QEntry>,
    /// Tuple id → tids of queue entries writing it, ascending (entries are
    /// pushed in tid order; the list's prefix before an entry are its
    /// predecessors on that key, the suffix its successors).
    waiters: IdMap<Vec<GlobalTid>>,
    /// Zero-blocker, not-yet-running entries; appliers pop the smallest.
    ready: BTreeSet<GlobalTid>,
    /// Entries currently marked running.
    running: usize,
    /// Highest tid committed at this replica.
    max_committed: GlobalTid,
    /// Cached `|entries ∩ [..max_committed)|`, the number of open holes, so
    /// the hole checks on every begin and commit are O(1). An entry is
    /// charged here at most once, when the commit frontier first passes it.
    open: usize,
}

impl TocommitQueue {
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Queued writesets not yet picked by an applier (the
    /// `applier_backlog` gauge).
    pub(crate) fn backlog(&self) -> usize {
        self.entries.len() - self.running
    }

    /// Eligible-but-unclaimed entries (the `ready_len` gauge).
    pub(crate) fn ready_len(&self) -> usize {
        self.ready.len()
    }

    /// The queued entries in tid order.
    pub fn iter(&self) -> impl Iterator<Item = &QEntry> {
        self.entries.values()
    }

    /// Is `xact` still queued here — validated (its outcome known) but not
    /// yet committed locally? Claimed entries stay in the queue until their
    /// commit removes them, so this covers the whole in-flight window.
    /// O(n) scan, but only called on the rare failover-inquire path.
    pub(crate) fn contains_xact(&self, xact: XactId) -> bool {
        self.entries.values().any(|e| e.xact == xact)
    }

    /// Highest tid committed at this replica.
    pub fn max_committed(&self) -> GlobalTid {
        self.max_committed
    }

    /// Is there a hole right now? (Some queued tid below a committed one.)
    pub fn holes_exist(&self) -> bool {
        self.open > 0
    }

    /// How many holes are open: queued tids below the commit frontier. O(1).
    pub fn open_holes(&self) -> usize {
        self.open
    }

    /// Would committing `tid` now create a *new* hole? True iff a queued tid
    /// falls strictly between `max_committed` and `tid`: not yet a hole, but
    /// it would become one. Committing at or below `max_committed` only ever
    /// closes holes.
    pub fn creates_new_hole(&self, tid: GlobalTid) -> bool {
        tid > self.max_committed
            && self.entries.range((Excluded(self.max_committed), Excluded(tid))).next().is_some()
    }

    /// Adjustment-1 local validation: does `ws` conflict with any queued
    /// entry? O(|ws|) probes of the waiter index.
    pub(crate) fn conflicts(&self, ws: &WriteSet) -> bool {
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
        if e.tid < self.max_committed {
            // Validated below the frontier (state-transfer catch-up): born a
            // hole.
            self.open += 1;
        }
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

    /// A recovering replica's queue: every entry loses its claim and its
    /// session (the joiner applies it like a remote one) and restarts its
    /// `validate_queue` at `at`. The indexes are rebuilt by pushes in tid
    /// order, exactly as delivery order built them; the frontier stays.
    pub(crate) fn requeue(&mut self, at: u64) {
        let frontier = TocommitQueue { max_committed: self.max_committed, ..Self::default() };
        for (tid, e) in std::mem::replace(self, frontier).entries {
            let mut entry = QEntry::new(tid, e.xact, e.ws, false);
            entry.last_ns = at;
            self.push(entry);
        }
    }

    /// Claim the smallest-tid eligible entry for an applier, marking it
    /// running.
    pub fn pop_ready(&mut self) -> Option<&QEntry> {
        let tid = self.ready.pop_first()?;
        #[expect(clippy::expect_used, reason = "ready ⊆ entries is the queue's invariant")]
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
        e.handed_back = true;
        self.running -= 1;
        self.ready.insert(tid);
    }

    /// Remove a committed entry, releasing its successors' blocker edges;
    /// newly eligible entries move onto the ready set. Returns how many did.
    ///
    /// The commit closes the hole `tid` itself was, or, when it moves the
    /// frontier past still-queued tids, opens theirs. Each queued tid is
    /// counted at most once, so the range walk is amortized O(1) per entry.
    pub fn remove(&mut self, tid: GlobalTid) -> usize {
        let Some(e) = self.entries.remove(&tid) else { return 0 };
        if tid < self.max_committed {
            self.open -= 1;
        } else {
            let passed = (Excluded(self.max_committed), Excluded(tid));
            self.open += self.entries.range(passed).count();
            self.max_committed = tid;
        }
        debug_assert_eq!(self.open, self.entries.range(..self.max_committed).count());
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
                for &succ in list.iter().skip(pos) {
                    #[expect(clippy::expect_used, reason = "waiter lists hold only queued tids")]
                    let s = self.entries.get_mut(&succ).expect("waiter must be queued");
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

#[cfg(test)]
mod tests {
    use super::*;
    use sirep_common::ReplicaId;

    fn t(n: u64) -> GlobalTid {
        GlobalTid::new(n)
    }

    /// A queue holding `tids`, none conflicting with another.
    fn queued(tids: impl IntoIterator<Item = u64>) -> TocommitQueue {
        let mut q = TocommitQueue::default();
        for n in tids {
            q.push(entry(n));
        }
        q
    }

    fn entry(n: u64) -> QEntry {
        let xact = XactId { origin: ReplicaId::new(0), seq: n };
        QEntry::new(t(n), xact, Arc::new(WriteSet::new()), false)
    }

    #[test]
    fn in_order_commits_never_hole() {
        let mut q = queued(1..=5);
        for i in 1..=5 {
            assert!(!q.creates_new_hole(t(i)));
            assert!(!q.holes_exist());
            q.remove(t(i));
        }
        assert!(!q.holes_exist());
        assert_eq!(q.max_committed(), t(5));
    }

    #[test]
    fn out_of_order_commit_creates_hole() {
        let mut q = queued([1, 2]);
        assert!(q.creates_new_hole(t(2)), "committing 2 before 1 creates a hole");
        q.remove(t(2));
        assert!(q.holes_exist());
        q.remove(t(1));
        assert!(!q.holes_exist(), "hole closes when 1 commits");
    }

    #[test]
    fn existing_hole_is_not_a_new_hole() {
        let mut q = queued([1, 2, 3]);
        q.remove(t(2)); // 1 is now a hole
                        // Committing 3 does not create a NEW hole (1 is already one, and
                        // nothing queued falls between max_committed = 2 and 3).
        assert!(!q.creates_new_hole(t(3)));
        // With 4 and 5 also queued, committing 5 would make 3 and 4 new
        // holes, and committing 4 would make 3 one.
        q.push(entry(4));
        q.push(entry(5));
        assert!(q.creates_new_hole(t(5)));
        assert!(q.creates_new_hole(t(4)));
        // Once 3 commits, committing 4 is hole-free again.
        q.remove(t(3));
        assert!(!q.creates_new_hole(t(4)));
    }

    #[test]
    fn committing_below_max_committed_never_creates_holes() {
        let mut q = queued([1, 2, 3]);
        q.remove(t(3)); // 1 and 2 are holes now
        assert!(!q.creates_new_hole(t(1)));
        assert!(!q.creates_new_hole(t(2)));
        assert!(!q.creates_new_hole(t(3))); // boundary: tid == max_committed
    }

    #[test]
    fn open_holes_counter_tracks_frontier_jumps() {
        let mut q = queued(1..=6);
        assert_eq!(q.open_holes(), 0);
        q.remove(t(5)); // frontier jumps past 1..4
        assert_eq!(q.open_holes(), 4);
        q.remove(t(2));
        assert_eq!(q.open_holes(), 3);
        q.remove(t(6)); // above the frontier, nothing queued in (5, 6)
        assert_eq!(q.open_holes(), 3);
        q.remove(t(3));
        assert_eq!(q.open_holes(), 2);
        q.remove(t(1));
        q.remove(t(4));
        assert_eq!(q.open_holes(), 0);
        assert!(!q.holes_exist());
    }

    #[test]
    fn requeue_keeps_the_frontier_and_its_holes() {
        let mut q = queued([3, 7, 10, 12]);
        q.pop_ready();
        q.remove(t(10));
        q.requeue(42);
        assert_eq!((q.max_committed(), q.open_holes()), (t(10), 2));
        assert!(q.holes_exist());
        // A tid validated below the frontier is born a hole.
        let mut q = TocommitQueue { max_committed: t(10), ..TocommitQueue::default() };
        q.push(entry(4));
        assert_eq!(q.open_holes(), 1);
        // Every entry lost its claim and restarts at the reset's stamp.
        let mut q = queued([3, 7]);
        q.pop_ready();
        q.requeue(42);
        assert_eq!((q.ready_len(), q.backlog()), (2, 2));
        assert!(q.iter().all(|e| e.last_ns == 42 && !e.running));
    }
}
