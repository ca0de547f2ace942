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

use crate::msg::XactId;
use sirep_common::{GlobalTid, ReplicaId};
use sirep_storage::{IdMap, WriteSet};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// An entry of `tocommit_queue_k`.
#[derive(Clone)]
pub struct QEntry {
    pub tid: GlobalTid,
    pub(crate) xact: XactId,
    pub(crate) ws: Arc<WriteSet>,
    pub(crate) origin: ReplicaId,
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
    pub fn new(
        tid: GlobalTid,
        xact: XactId,
        ws: Arc<WriteSet>,
        origin: ReplicaId,
        running: bool,
    ) -> QEntry {
        QEntry { tid, xact, ws, origin, running, blockers: 0, last_ns: 0, handed_back: false }
    }
}

/// The queue: entries by tid, and the indexes that make claims O(log n).
#[derive(Clone, Default)]
pub struct TocommitQueue {
    entries: BTreeMap<GlobalTid, QEntry>,
    /// Tuple id → tids of queue entries writing it, ascending (entries are
    /// pushed in tid order; the list's prefix before an entry are its
    /// predecessors on that key, the suffix its successors).
    waiters: IdMap<Vec<GlobalTid>>,
    /// Zero-blocker, not-yet-running entries; appliers pop the smallest.
    ready: BTreeSet<GlobalTid>,
    /// Entries currently marked running.
    running: usize,
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
    pub(crate) fn iter(&self) -> impl Iterator<Item = &QEntry> {
        self.entries.values()
    }

    /// Is `xact` still queued here — validated (its outcome known) but not
    /// yet committed locally? Claimed entries stay in the queue until their
    /// commit removes them, so this covers the whole in-flight window.
    /// O(n) scan, but only called on the rare failover-inquire path.
    pub(crate) fn contains_xact(&self, xact: XactId) -> bool {
        self.entries.values().any(|e| e.xact == xact)
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
        e.handed_back = true;
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
