//! Crash-point chaos plan: named places in the protocol where a replica
//! can be made to crash-stop the instant execution reaches them.
//!
//! The paper's §5.4 failover argument is about *where* a crash interleaves
//! with the commit pipeline: before the multicast (case 1/2 — the
//! transaction dies with its origin), after the multicast but before the
//! local commit/ack (case 3 — the classic in-doubt window), after delivery
//! but before the local commit of a remote writeset, and in the middle of a
//! recovery state transfer. Sleeping and hoping a concurrent `crash()`
//! lands in the right window is hopeless; arming a [`CrashPoint`] makes the
//! interleaving deterministic.
//!
//! A [`CrashPlan`] is shared by every node of a cluster. Each point is
//! **one-shot**: the first replica to reach an armed point (with a matching
//! replica id) fires it, records [`EventKind::CrashPointFired`] in its
//! journal, and crash-stops exactly as `Cluster::crash` would (GCS member
//! first, then the node), after which the point is disarmed.
//!
//! [`EventKind::CrashPointFired`]: sirep_common::EventKind::CrashPointFired

use parking_lot::{Condvar, Mutex};
use sirep_common::{CrashPoint, ReplicaId};
use std::collections::BTreeMap;
use std::time::Duration;

/// Named places in the protocol where a thread can be made to *pause*
/// (block) until released — the deterministic-schedule counterpart of a
/// [`CrashPoint`], used by counterexample-replay tests (sirep-model) to
/// hold a thread inside a specific interleaving window. Unlike a crash
/// point a pause is not one-shot: every thread of the armed replica that
/// reaches the point blocks until [`CrashPlan::release_pause`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PausePoint {
    /// In `begin_local` (SRCA-Opt), just before the state lock is taken —
    /// the window the nonatomic-begin-snapshot counterexample schedules a
    /// concurrent commit into.
    OptBeginPreLock,
    /// In `run_batch`, on the thread that claimed a batch, before it is
    /// applied and committed — the window where a writeset is validated
    /// (its outcome known) but not yet locally visible.
    ApplierBeforeCommit,
}

/// One armed pause: who pauses there, and how many threads have reached
/// the point so far (lets a test wait until the target thread is parked).
#[derive(Debug, Clone, Copy)]
struct Pause {
    replica: ReplicaId,
    reached: usize,
}

/// Armed crash-points for one cluster. Cheap to check when nothing is
/// armed (one short mutex hold on an empty map). A `BTreeMap` so that
/// `armed()` enumerates in a stable order — chaos harness output must be
/// a pure function of the seed.
#[derive(Debug, Default)]
pub struct CrashPlan {
    armed: Mutex<BTreeMap<CrashPoint, ReplicaId>>,
    paused: Mutex<BTreeMap<PausePoint, Pause>>,
    pause_cond: Condvar,
}

impl CrashPlan {
    pub fn new() -> CrashPlan {
        CrashPlan::default()
    }

    /// Arm `point` for `replica`; replaces any previous arming of the same
    /// point.
    pub fn arm(&self, point: CrashPoint, replica: ReplicaId) {
        self.armed.lock().insert(point, replica);
    }

    /// Disarm `point`. `false`: it was not armed any more — it has fired
    /// (the replica is crashing or down) or never was.
    pub fn disarm(&self, point: CrashPoint) -> bool {
        self.armed.lock().remove(&point).is_some()
    }

    /// Currently armed points.
    pub fn armed(&self) -> Vec<(CrashPoint, ReplicaId)> {
        self.armed.lock().iter().map(|(&p, &r)| (p, r)).collect()
    }

    /// Arm `point` as a pause for `replica`; replaces any previous arming.
    pub fn arm_pause(&self, point: PausePoint, replica: ReplicaId) {
        self.paused.lock().insert(point, Pause { replica, reached: 0 });
    }

    /// Release every thread parked at `point` (no-op if not armed).
    pub fn release_pause(&self, point: PausePoint) {
        self.paused.lock().remove(&point);
        self.pause_cond.notify_all();
    }

    /// How many threads have reached `point` since it was armed — a test
    /// polls this to know its target thread is parked in the window.
    pub fn pause_reached(&self, point: PausePoint) -> usize {
        self.paused.lock().get(&point).map_or(0, |p| p.reached)
    }

    /// Block while `point` is armed for `replica`. The tick keeps the wait
    /// robust against a release racing the park (no lost-wakeup hangs).
    pub(crate) fn pause_at(&self, point: PausePoint, replica: ReplicaId) {
        let mut paused = self.paused.lock();
        match paused.get_mut(&point) {
            Some(p) if p.replica == replica => p.reached += 1,
            _ => return,
        }
        while paused.get(&point).is_some_and(|p| p.replica == replica) {
            self.pause_cond.wait_for(&mut paused, Duration::from_millis(25));
        }
    }

    /// True (and disarms the point) exactly once, when `replica` reaches an
    /// armed `point`.
    pub(crate) fn fire(&self, point: CrashPoint, replica: ReplicaId) -> bool {
        let mut armed = self.armed.lock();
        if armed.get(&point) == Some(&replica) {
            armed.remove(&point);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_points_are_one_shot_and_replica_scoped() {
        let plan = CrashPlan::new();
        let p = CrashPoint::AfterMulticastBeforeLocalCommit;
        plan.arm(p, ReplicaId::new(1));
        assert!(!plan.fire(p, ReplicaId::new(0)), "wrong replica must not fire");
        assert!(plan.fire(p, ReplicaId::new(1)));
        assert!(!plan.fire(p, ReplicaId::new(1)), "second reach must not re-fire");
        assert!(plan.armed().is_empty());
    }

    #[test]
    fn pause_points_block_until_released_and_are_replica_scoped() {
        let plan = std::sync::Arc::new(CrashPlan::new());
        let p = PausePoint::ApplierBeforeCommit;
        // Unarmed and wrong-replica reaches are no-ops.
        plan.pause_at(p, ReplicaId::new(0));
        plan.arm_pause(p, ReplicaId::new(1));
        plan.pause_at(p, ReplicaId::new(0));
        assert_eq!(plan.pause_reached(p), 0, "wrong replica must not park");
        let t = {
            let plan = std::sync::Arc::clone(&plan);
            std::thread::spawn(move || plan.pause_at(p, ReplicaId::new(1)))
        };
        while plan.pause_reached(p) == 0 {
            std::thread::yield_now();
        }
        assert!(!t.is_finished(), "armed pause must park the matching replica");
        plan.release_pause(p);
        t.join().unwrap();
        // Released points are gone: reaching again is a no-op.
        plan.pause_at(p, ReplicaId::new(1));
    }

    #[test]
    fn disarm_prevents_firing() {
        let plan = CrashPlan::new();
        plan.arm(CrashPoint::MidStateTransfer, ReplicaId::new(2));
        assert!(plan.disarm(CrashPoint::MidStateTransfer), "it was still armed");
        assert!(!plan.fire(CrashPoint::MidStateTransfer, ReplicaId::new(2)));
        assert!(!plan.disarm(CrashPoint::MidStateTransfer), "nothing left to disarm");
    }
}
