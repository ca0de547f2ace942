//! Commit-order holes and the start/commit synchronization of §4.3.3.
//!
//! With adjustment 2 (concurrent commits), transactions may commit at a
//! replica in an order different from validation order; a validated-but-
//! uncommitted transaction with a smaller tid than some committed
//! transaction is a **hole**. Holes are harmless to transactions already
//! running, but a transaction that *starts* while a hole exists can observe
//! a snapshot that includes tid `j` but not tid `i < j` — which is how
//! SRCA-Opt loses 1-copy-SI (§4.3.2 / Fig. 7's ablation).
//!
//! Adjustment 3 restores correctness:
//!
//! - a local transaction may only **start** when there are no holes;
//! - a transaction may only **commit** if (a) no local transaction is
//!   waiting to start, or (b) it is local, or (c) its commit does not create
//!   a new hole.
//!
//! Liveness (paper's argument): the queued transaction with the smallest
//! tid above `max_committed` never creates a new hole, so it can always
//! commit; existing holes therefore drain, and waiting starts are admitted.
//!
//! [`HoleTracker`] implements the bookkeeping; the replica node drives it
//! under its state lock.

use sirep_common::GlobalTid;
use std::collections::BTreeSet;
use std::ops::Bound::Excluded;

/// Tracks validated-but-uncommitted tids at one replica.
#[derive(Debug, Clone, Default)]
pub struct HoleTracker {
    /// Validated, not yet committed at this replica, in tid order.
    pending: BTreeSet<GlobalTid>,
    /// Highest tid committed at this replica.
    max_committed: GlobalTid,
    /// Cached `|pending ∩ [..max_committed)|` — the number of open holes.
    /// Maintained incrementally so the hole checks on every begin/commit
    /// (and the `open_holes` gauge refresh) are O(1) instead of a range
    /// count; a pending tid is charged here at most once, when the commit
    /// frontier first passes it.
    open: usize,
    /// Local transactions currently blocked in "wait until no holes"
    /// (the paper's set A).
    waiting_to_start: usize,
    /// Local transactions currently running — begun and still holding
    /// database resources (the paper's set B). While B is non-empty,
    /// hole-creating commits must NOT be throttled: a running local can
    /// hold tuple locks that block a remote writeset, and throttling that
    /// writeset's commit would close a deadlock cycle through the
    /// middleware. §4.3.3: "We allow new holes to be created until B is
    /// empty. Once B is empty, we delay the commit of further
    /// transactions until all holes have disappeared. This does not lead
    /// to hidden deadlocks since there are only remote transactions
    /// delayed [...] which have not yet started and acquired locks."
    running_locals: usize,
}

impl HoleTracker {
    pub fn new() -> HoleTracker {
        HoleTracker::default()
    }

    /// Initialize the tracker of a recovering replica: `max_committed` is
    /// the highest tid contained in the transferred state, `pending` are
    /// validated-but-uncommitted tids copied from the donor's queue.
    pub fn bootstrap(
        max_committed: GlobalTid,
        pending: impl IntoIterator<Item = GlobalTid>,
    ) -> HoleTracker {
        let pending: BTreeSet<GlobalTid> = pending.into_iter().collect();
        let open = pending.range(..max_committed).count();
        HoleTracker { pending, max_committed, open, waiting_to_start: 0, running_locals: 0 }
    }

    /// A writeset passed validation and was queued at this replica.
    pub fn on_validated(&mut self, tid: GlobalTid) {
        let inserted = self.pending.insert(tid);
        debug_assert!(inserted, "tid {tid} validated twice");
        if tid < self.max_committed {
            // Validated below the frontier (bootstrap catch-up): born a hole.
            self.open += 1;
        }
    }

    /// The transaction committed at this replica.
    pub fn on_committed(&mut self, tid: GlobalTid) {
        let removed = self.pending.remove(&tid);
        debug_assert!(removed, "commit of unknown tid {tid}");
        self.advance_frontier(tid, removed);
    }

    /// A queued transaction was aborted/discarded before commit (only
    /// possible during shutdown — validated transactions otherwise always
    /// commit).
    pub fn on_discarded(&mut self, tid: GlobalTid) {
        // Treat like a committed tid so it can never be (or hold open) a
        // hole.
        let removed = self.pending.remove(&tid);
        self.advance_frontier(tid, removed);
    }

    /// Shared commit/discard bookkeeping: `tid` left `pending` (if it was
    /// there) and becomes committed. Closes the hole `tid` itself was, and
    /// when the frontier advances past still-pending tids, opens theirs —
    /// each pending tid is counted at most once, so the range walk is
    /// amortized O(1) per transaction.
    fn advance_frontier(&mut self, tid: GlobalTid, removed: bool) {
        if removed && tid < self.max_committed {
            self.open -= 1;
        } else if tid > self.max_committed {
            self.open += self.pending.range((Excluded(self.max_committed), Excluded(tid))).count();
            self.max_committed = tid;
        }
        debug_assert_eq!(self.open, self.pending.range(..self.max_committed).count());
    }

    /// Is there a hole right now? (Some pending tid below a committed one.)
    pub fn holes_exist(&self) -> bool {
        self.open > 0
    }

    /// How many holes are open right now: pending tids strictly below the
    /// commit frontier (the quantity behind the `open_holes` gauge). O(1).
    pub fn open_holes(&self) -> usize {
        self.open
    }

    /// Would committing `tid` now create a *new* hole? True iff some pending
    /// transaction falls strictly between `max_committed` and `tid` — those
    /// are not yet holes, but would become ones. Committing at or below
    /// `max_committed` only ever *closes* holes.
    pub fn creates_new_hole(&self, tid: GlobalTid) -> bool {
        if tid <= self.max_committed {
            return false;
        }
        self.pending
            .range((std::ops::Bound::Excluded(self.max_committed), std::ops::Bound::Excluded(tid)))
            .next()
            .is_some()
    }

    /// The §4.3.3 commit rule: a commit may be delayed only when (a) it is
    /// remote, (b) it would create a new hole, (c) a local transaction is
    /// waiting to start, **and** (d) no local transaction is still running
    /// (set B empty — otherwise throttling could deadlock with database
    /// tuple locks held by running locals).
    pub fn may_commit(&self, tid: GlobalTid, is_local: bool) -> bool {
        is_local
            || self.waiting_to_start == 0
            || self.running_locals > 0
            || !self.creates_new_hole(tid)
    }

    /// Register/unregister a local transaction blocked on "no holes".
    pub fn start_waiting(&mut self) {
        self.waiting_to_start += 1;
    }

    pub fn done_waiting(&mut self) {
        debug_assert!(self.waiting_to_start > 0);
        self.waiting_to_start -= 1;
    }

    pub fn waiting_to_start(&self) -> usize {
        self.waiting_to_start
    }

    /// A local transaction began (entered set B).
    pub fn local_started(&mut self) {
        self.running_locals += 1;
    }

    /// A local transaction terminated (left set B) — committed, aborted or
    /// rolled back; it no longer holds any database locks.
    pub fn local_finished(&mut self) {
        debug_assert!(self.running_locals > 0);
        self.running_locals -= 1;
    }

    pub fn running_locals(&self) -> usize {
        self.running_locals
    }

    /// The validated-but-uncommitted tids, ascending.
    pub fn pending(&self) -> impl Iterator<Item = GlobalTid> + '_ {
        self.pending.iter().copied()
    }

    pub fn max_committed(&self) -> GlobalTid {
        self.max_committed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u64) -> GlobalTid {
        GlobalTid::new(n)
    }

    #[test]
    fn in_order_commits_never_hole() {
        let mut h = HoleTracker::new();
        for i in 1..=5 {
            h.on_validated(t(i));
        }
        for i in 1..=5 {
            assert!(!h.creates_new_hole(t(i)) || i > 1);
            assert!(!h.holes_exist());
            h.on_committed(t(i));
        }
        assert!(!h.holes_exist());
        assert_eq!(h.max_committed(), t(5));
    }

    #[test]
    fn out_of_order_commit_creates_hole() {
        let mut h = HoleTracker::new();
        h.on_validated(t(1));
        h.on_validated(t(2));
        assert!(h.creates_new_hole(t(2)), "committing 2 before 1 creates a hole");
        h.on_committed(t(2));
        assert!(h.holes_exist());
        h.on_committed(t(1));
        assert!(!h.holes_exist(), "hole closes when 1 commits");
    }

    #[test]
    fn existing_hole_is_not_a_new_hole() {
        let mut h = HoleTracker::new();
        h.on_validated(t(1));
        h.on_validated(t(2));
        h.on_validated(t(3));
        h.on_committed(t(2)); // 1 is now a hole
                              // Committing 3 does not create a NEW hole (1 is already one, and
                              // nothing pending falls between max_committed=2 and 3).
        assert!(!h.creates_new_hole(t(3)));
        // With 4 and 5 also pending, committing 5 would make 3 and 4 new
        // holes, and committing 4 would make 3 one.
        h.on_validated(t(4));
        h.on_validated(t(5));
        assert!(h.creates_new_hole(t(5)));
        assert!(h.creates_new_hole(t(4)));
        // Once 3 commits, committing 4 is hole-free again.
        h.on_committed(t(3));
        assert!(!h.creates_new_hole(t(4)));
    }

    #[test]
    fn commit_rule_gates_only_hole_creating_remotes_while_locals_wait() {
        let mut h = HoleTracker::new();
        h.on_validated(t(1));
        h.on_validated(t(2));
        h.start_waiting();
        // Remote commit of 2 would create a hole → delayed.
        assert!(!h.may_commit(t(2), false));
        // Local commit of 2 is always allowed.
        assert!(h.may_commit(t(2), true));
        // Remote commit of 1 creates no hole → allowed.
        assert!(h.may_commit(t(1), false));
        h.done_waiting();
        // Nobody waiting → anything may commit.
        assert!(h.may_commit(t(2), false));
    }

    #[test]
    fn running_locals_disable_commit_throttling() {
        // While set B is non-empty, hole-creating remote commits must not
        // be delayed (they could be blocked on a running local's tuple
        // locks — throttling would deadlock).
        let mut h = HoleTracker::new();
        h.on_validated(t(1));
        h.on_validated(t(2));
        h.start_waiting();
        h.local_started();
        assert!(h.may_commit(t(2), false), "B non-empty: no throttling");
        h.local_finished();
        assert!(!h.may_commit(t(2), false), "B empty: throttle hole-creators");
        h.done_waiting();
    }

    #[test]
    fn liveness_smallest_pending_always_commits() {
        let mut h = HoleTracker::new();
        for i in 1..=10 {
            h.on_validated(t(i));
        }
        h.start_waiting();
        let smallest = t(1);
        assert!(h.may_commit(smallest, false));
        h.on_committed(smallest);
        // Next smallest now allowed, and so on — the queue drains.
        assert!(h.may_commit(t(2), false));
    }

    #[test]
    fn committing_below_max_committed_never_creates_holes() {
        let mut h = HoleTracker::new();
        h.on_validated(t(1));
        h.on_validated(t(2));
        h.on_validated(t(3));
        h.on_committed(t(3)); // 1 and 2 are holes now
        assert!(!h.creates_new_hole(t(1)));
        assert!(!h.creates_new_hole(t(2)));
        assert!(!h.creates_new_hole(t(3))); // boundary: tid == max_committed
        assert!(h.may_commit(t(1), false));
    }

    #[test]
    fn open_holes_counter_tracks_frontier_jumps() {
        let mut h = HoleTracker::new();
        for i in 1..=6 {
            h.on_validated(t(i));
        }
        assert_eq!(h.open_holes(), 0);
        h.on_committed(t(5)); // frontier jumps past 1..4
        assert_eq!(h.open_holes(), 4);
        h.on_committed(t(2));
        assert_eq!(h.open_holes(), 3);
        h.on_committed(t(6)); // above frontier, no pending in (5, 6)
        assert_eq!(h.open_holes(), 3);
        h.on_discarded(t(3));
        assert_eq!(h.open_holes(), 2);
        h.on_committed(t(1));
        h.on_committed(t(4));
        assert_eq!(h.open_holes(), 0);
        assert!(!h.holes_exist());
    }

    #[test]
    fn bootstrap_counts_existing_holes() {
        let h = HoleTracker::bootstrap(t(10), [t(3), t(7), t(12)]);
        assert_eq!(h.open_holes(), 2);
        assert!(h.holes_exist());
    }

    #[test]
    fn discard_acts_like_commit_for_hole_accounting() {
        let mut h = HoleTracker::new();
        h.on_validated(t(1));
        h.on_validated(t(2));
        h.on_discarded(t(1));
        assert!(!h.creates_new_hole(t(2)));
        h.on_committed(t(2));
        assert!(!h.holes_exist());
    }
}
