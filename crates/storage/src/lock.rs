//! The tuple lock manager.
//!
//! §4 of the paper describes how PostgreSQL detects write/write conflicts:
//! *"Whenever a transaction Ti wants to write a tuple x it acquires an
//! exclusive lock, and performs a version check. [...] If a transaction Tj
//! holds a lock on x when Ti requests its lock, Ti is blocked."* Deadlocks
//! between transactions are detected by the database and a victim aborted.
//!
//! This module implements exactly that blocking machinery:
//!
//! - per-tuple exclusive locks with FIFO wait queues;
//! - a wait-for graph with immediate cycle detection — because every
//!   transaction waits on at most one lock the graph is functional, so any
//!   cycle created by a new wait edge must pass through the new waiter,
//!   and following the chain from the requester suffices;
//! - "dooming": an external kill (crash simulation, replica shutdown) wakes
//!   a blocked transaction and makes its acquisition fail. Note that the
//!   paper points out a *client* cannot abort a blocked transaction
//!   (§4.3.1); dooming models the database process dying, not a client
//!   rollback, and the engine only exposes it through crash APIs.
//!
//! The whole manager is one mutex plus one condvar. Lock operations are
//! short critical sections (no I/O, no user code); at the scale of this
//! reproduction (tens of threads) this is both simple and fast, and all
//! simulated service times sleep *outside* the critical section.

use crate::value::Key;
use parking_lot::{Condvar, Mutex};
use sirep_common::{AbortReason, TxnId};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Identifies a lockable tuple.
pub type LockId = (Arc<str>, Key);

#[derive(Debug)]
struct LockEntry {
    owner: TxnId,
    waiters: VecDeque<TxnId>,
}

#[derive(Debug, Default)]
struct LmState {
    locks: HashMap<LockId, LockEntry>,
    /// waiter → owner it currently waits on (functional wait-for graph).
    waits_for: HashMap<TxnId, TxnId>,
    /// Transactions killed from outside while possibly blocked.
    doomed: std::collections::HashSet<TxnId>,
}

impl LmState {
    /// Does inserting/refreshing the edge `from → ...` close a cycle back to
    /// `from`? Follows the functional wait-for chain.
    fn cycle_through(&self, from: TxnId) -> bool {
        let mut cur = from;
        let mut hops = 0;
        while let Some(&next) = self.waits_for.get(&cur) {
            if next == from {
                return true;
            }
            cur = next;
            hops += 1;
            if hops > self.waits_for.len() {
                // Defensive: a cycle not involving `from` (cannot happen by
                // construction, but never loop forever).
                return false;
            }
        }
        false
    }

    fn remove_waiter(&mut self, id: &LockId, txn: TxnId) {
        if let Some(e) = self.locks.get_mut(id) {
            e.waiters.retain(|&w| w != txn);
        }
        self.waits_for.remove(&txn);
    }

    /// Take `id` from its owner: grant it to the next waiter (FIFO), or
    /// free it. The caller wakes the blocked threads.
    fn pass_on(&mut self, id: &LockId) {
        let Some(e) = self.locks.get_mut(id) else { return };
        if let Some(next) = e.waiters.pop_front() {
            e.owner = next;
            let remaining: Vec<TxnId> = e.waiters.iter().copied().collect();
            self.waits_for.remove(&next);
            for w in remaining {
                self.waits_for.insert(w, next);
            }
        } else {
            self.locks.remove(id);
        }
    }
}

/// The lock manager. Shared by all transactions of one database replica.
#[derive(Debug, Default)]
pub struct LockManager {
    state: Mutex<LmState>,
    cond: Condvar,
}

impl LockManager {
    pub fn new() -> LockManager {
        LockManager::default()
    }

    /// Acquire the exclusive lock on `id` for `txn`, blocking while another
    /// transaction holds it. Fails with [`AbortReason::Deadlock`] when the
    /// wait would close a cycle, or [`AbortReason::Shutdown`] when the
    /// transaction was doomed while waiting. Re-acquiring an owned lock is
    /// a no-op.
    pub fn acquire(&self, txn: TxnId, id: &LockId) -> Result<(), AbortReason> {
        let mut st = self.state.lock();
        if st.doomed.contains(&txn) {
            return Err(AbortReason::Shutdown);
        }
        loop {
            match st.locks.get_mut(id) {
                None => {
                    st.locks.insert(id.clone(), LockEntry { owner: txn, waiters: VecDeque::new() });
                    return Ok(());
                }
                Some(e) if e.owner == txn => return Ok(()),
                Some(e) => {
                    let owner = e.owner;
                    if !e.waiters.contains(&txn) {
                        e.waiters.push_back(txn);
                    }
                    st.waits_for.insert(txn, owner);
                    if st.cycle_through(txn) {
                        st.remove_waiter(id, txn);
                        return Err(AbortReason::Deadlock);
                    }
                }
            }
            self.cond.wait(&mut st);
            // Woken: either we were granted ownership, the owner changed
            // (refresh the wait edge), or we were doomed.
            if st.doomed.contains(&txn) {
                st.remove_waiter(id, txn);
                if st.locks.get(id).is_some_and(|e| e.owner == txn) {
                    // Granted before we woke: hand it on, or it stays owned
                    // by a transaction that never learns it holds it.
                    st.pass_on(id);
                    self.cond.notify_all();
                }
                return Err(AbortReason::Shutdown);
            }
            if let Some(e) = st.locks.get(id) {
                if e.owner == txn {
                    st.waits_for.remove(&txn);
                    return Ok(());
                }
            }
            // else: loop re-enqueues / refreshes the edge.
        }
    }

    /// [`LockManager::acquire`] that never waits (no-wait locking): where
    /// that would block, fails with [`AbortReason::Deadlock`].
    pub fn try_acquire(&self, txn: TxnId, id: &LockId) -> Result<(), AbortReason> {
        let mut st = self.state.lock();
        match st.locks.get(id) {
            _ if st.doomed.contains(&txn) => Err(AbortReason::Shutdown),
            Some(e) if e.owner != txn => Err(AbortReason::Deadlock),
            Some(_) => Ok(()),
            None => {
                st.locks.insert(id.clone(), LockEntry { owner: txn, waiters: VecDeque::new() });
                Ok(())
            }
        }
    }

    /// Release every lock in `ids` held by `txn`, granting each to its next
    /// waiter (FIFO) and, if anybody is parked, waking all blocked threads
    /// to re-check.
    pub fn release_all(&self, txn: TxnId, ids: &[LockId]) {
        let mut st = self.state.lock();
        // Every parked waiter has a wait-for edge — read before `pass_on`
        // drops a grantee's. A notify is a system call even with no waiter.
        let parked = !st.waits_for.is_empty();
        for id in ids {
            // Not the owner: already granted away (defensive).
            if st.locks.get(id).is_some_and(|e| e.owner == txn) {
                st.pass_on(id);
            }
        }
        st.doomed.remove(&txn);
        drop(st);
        if parked {
            self.cond.notify_all();
        }
    }

    /// Kill `txn` from outside: wakes it if blocked and makes any current or
    /// future acquisition fail with [`AbortReason::Shutdown`]. The flag is
    /// cleared when the transaction releases its locks (terminates).
    pub fn doom(&self, txn: TxnId) {
        let mut st = self.state.lock();
        st.doomed.insert(txn);
        drop(st);
        self.cond.notify_all();
    }

    /// Test/inspection helper: current owner of a lock, if held.
    pub fn owner_of(&self, id: &LockId) -> Option<TxnId> {
        self.state.lock().locks.get(id).map(|e| e.owner)
    }

    /// Test/inspection helper: number of transactions blocked right now.
    pub fn blocked_count(&self) -> usize {
        self.state.lock().waits_for.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::thread;
    use std::time::Duration;

    fn lid(k: i64) -> LockId {
        (Arc::from("t"), Key::single(Value::Int(k)))
    }

    #[test]
    fn exclusive_and_reentrant() {
        let lm = LockManager::new();
        let a = TxnId::new(1);
        lm.acquire(a, &lid(1)).unwrap();
        lm.acquire(a, &lid(1)).unwrap(); // reentrant no-op
        assert_eq!(lm.owner_of(&lid(1)), Some(a));
        lm.release_all(a, &[lid(1)]);
        assert_eq!(lm.owner_of(&lid(1)), None);
    }

    #[test]
    fn blocking_and_fifo_grant() {
        let lm = Arc::new(LockManager::new());
        let a = TxnId::new(1);
        lm.acquire(a, &lid(1)).unwrap();

        let got_b = Arc::new(AtomicBool::new(false));
        let lm2 = Arc::clone(&lm);
        let got_b2 = Arc::clone(&got_b);
        let h = thread::spawn(move || {
            lm2.acquire(TxnId::new(2), &lid(1)).unwrap();
            got_b2.store(true, Ordering::SeqCst);
        });
        thread::sleep(Duration::from_millis(50));
        assert!(!got_b.load(Ordering::SeqCst), "B must block while A holds");
        assert_eq!(lm.blocked_count(), 1);
        lm.release_all(a, &[lid(1)]);
        h.join().unwrap();
        assert!(got_b.load(Ordering::SeqCst));
        assert_eq!(lm.owner_of(&lid(1)), Some(TxnId::new(2)));
    }

    /// A release only notifies when somebody is parked; the waiter it grants
    /// the lock to must still be woken.
    #[test]
    fn a_release_wakes_the_waiter_it_grants_the_lock_to() {
        let lm = Arc::new(LockManager::new());
        let [a, b] = [1, 2].map(TxnId::new);
        lm.acquire(a, &lid(1)).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = Arc::clone(&lm);
        let h = thread::spawn(move || tx.send(waiter.acquire(b, &lid(1))).unwrap());
        while lm.blocked_count() == 0 {
            thread::yield_now();
        }
        lm.release_all(a, &[lid(1)]);
        let granted = rx.recv_timeout(Duration::from_secs(10));
        assert_eq!(granted, Ok(Ok(())), "the waiter granted the lock was never woken");
        h.join().unwrap();
        assert_eq!(lm.owner_of(&lid(1)), Some(b));
    }

    #[test]
    fn try_acquire_never_waits() {
        let lm = LockManager::new();
        let [a, b] = [1, 2].map(TxnId::new);
        assert_eq!(lm.try_acquire(a, &lid(1)), Ok(()));
        assert_eq!(lm.try_acquire(a, &lid(1)), Ok(()), "reentrant");
        assert_eq!(lm.try_acquire(b, &lid(1)), Err(AbortReason::Deadlock));
        assert_eq!(lm.blocked_count(), 0, "a failed probe leaves no wait edge");
        lm.release_all(a, &[lid(1)]);
        assert_eq!(lm.try_acquire(b, &lid(1)), Ok(()));
        lm.doom(a);
        assert_eq!(lm.try_acquire(a, &lid(2)), Err(AbortReason::Shutdown));
    }

    #[test]
    fn two_party_deadlock_aborts_the_closer() {
        let lm = Arc::new(LockManager::new());
        let a = TxnId::new(1);
        let b = TxnId::new(2);
        lm.acquire(a, &lid(1)).unwrap();
        lm.acquire(b, &lid(2)).unwrap();

        // B blocks on 1 (held by A).
        let lm2 = Arc::clone(&lm);
        let h = thread::spawn(move || lm2.acquire(b, &lid(1)));
        while lm.blocked_count() == 0 {
            thread::yield_now();
        }
        // A now requests 2 (held by B, which waits on A) → cycle → A aborts.
        let r = lm.acquire(a, &lid(2));
        assert_eq!(r, Err(AbortReason::Deadlock));
        // A (the victim) releases; B obtains the lock.
        lm.release_all(a, &[lid(1)]);
        assert_eq!(h.join().unwrap(), Ok(()));
        lm.release_all(b, &[lid(1), lid(2)]);
    }

    #[test]
    fn three_party_cycle_detected() {
        let lm = Arc::new(LockManager::new());
        let (a, b, c) = (TxnId::new(1), TxnId::new(2), TxnId::new(3));
        lm.acquire(a, &lid(1)).unwrap();
        lm.acquire(b, &lid(2)).unwrap();
        lm.acquire(c, &lid(3)).unwrap();

        let lm_b = Arc::clone(&lm);
        let hb = thread::spawn(move || lm_b.acquire(b, &lid(1)));
        let lm_c = Arc::clone(&lm);
        let hc = thread::spawn(move || lm_c.acquire(c, &lid(2)));
        while lm.blocked_count() < 2 {
            thread::yield_now();
        }
        // a → lid(3) closes a ← b ← c ← a.
        assert_eq!(lm.acquire(a, &lid(3)), Err(AbortReason::Deadlock));
        lm.release_all(a, &[lid(1)]);
        assert_eq!(hb.join().unwrap(), Ok(()));
        lm.release_all(b, &[lid(1), lid(2)]);
        assert_eq!(hc.join().unwrap(), Ok(()));
    }

    #[test]
    fn doom_wakes_blocked_waiter() {
        let lm = Arc::new(LockManager::new());
        let a = TxnId::new(1);
        let b = TxnId::new(2);
        lm.acquire(a, &lid(1)).unwrap();
        let lm2 = Arc::clone(&lm);
        let h = thread::spawn(move || lm2.acquire(b, &lid(1)));
        while lm.blocked_count() == 0 {
            thread::yield_now();
        }
        lm.doom(b);
        assert_eq!(h.join().unwrap(), Err(AbortReason::Shutdown));
        // A is unaffected.
        assert_eq!(lm.owner_of(&lid(1)), Some(a));
        lm.release_all(a, &[lid(1)]);
    }

    /// A waiter doomed and granted the lock before it wakes must not die
    /// owning it.
    #[test]
    fn a_lock_granted_to_a_doomed_waiter_is_passed_on() {
        for _ in 0..200 {
            let lm = Arc::new(LockManager::new());
            let [a, b] = [1, 2].map(TxnId::new);
            lm.acquire(a, &lid(1)).unwrap();
            let waiter = Arc::clone(&lm);
            let h = thread::spawn(move || waiter.acquire(b, &lid(1)));
            while lm.blocked_count() == 0 {
                thread::yield_now();
            }
            // Doom B and release A back to back: B is granted the lock
            // before it gets to run.
            lm.doom(b);
            lm.release_all(a, &[lid(1)]);
            assert_eq!(h.join().unwrap(), Err(AbortReason::Shutdown));
            assert_eq!(lm.owner_of(&lid(1)), None, "the lock died with its doomed owner");
        }
    }

    #[test]
    fn doomed_txn_cannot_acquire_new_locks() {
        let lm = LockManager::new();
        let a = TxnId::new(1);
        lm.doom(a);
        assert_eq!(lm.acquire(a, &lid(1)), Err(AbortReason::Shutdown));
        // Termination clears the doom flag and the id can be reused.
        lm.release_all(a, &[]);
        assert_eq!(lm.acquire(a, &lid(1)), Ok(()));
        lm.release_all(a, &[lid(1)]);
    }

    #[test]
    fn grant_chain_through_multiple_waiters() {
        let lm = Arc::new(LockManager::new());
        let a = TxnId::new(1);
        lm.acquire(a, &lid(1)).unwrap();
        let mut handles = Vec::new();
        for i in 2..=5 {
            let lm2 = Arc::clone(&lm);
            handles.push(thread::spawn(move || {
                let me = TxnId::new(i);
                lm2.acquire(me, &lid(1)).unwrap();
                // Hold briefly, then pass on.
                thread::sleep(Duration::from_millis(5));
                lm2.release_all(me, &[lid(1)]);
            }));
        }
        while lm.blocked_count() < 4 {
            thread::yield_now();
        }
        lm.release_all(a, &[lid(1)]);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(lm.owner_of(&lid(1)), None);
        assert_eq!(lm.blocked_count(), 0);
    }

    #[test]
    fn no_false_deadlock_on_simple_contention() {
        // Many txns hammering two locks in the same order never deadlock.
        let lm = Arc::new(LockManager::new());
        let mut handles = Vec::new();
        for i in 0..8 {
            let lm2 = Arc::clone(&lm);
            handles.push(thread::spawn(move || {
                let me = TxnId::new(i + 1);
                for _ in 0..50 {
                    lm2.acquire(me, &lid(1)).unwrap();
                    lm2.acquire(me, &lid(2)).unwrap();
                    lm2.release_all(me, &[lid(1), lid(2)]);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
