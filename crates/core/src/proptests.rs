//! Property-based tests for the protocol data structures.

use crate::model::{check_one_copy_si, is_si_schedule, Op, ReplicatedExecution, Schedule, TxSpec};
use crate::msg::XactId;
use crate::tocommit::{QEntry, TocommitQueue};
use crate::validation::WsList;
use proptest::prelude::*;
use sirep_common::{GlobalTid, ReplicaId};
use sirep_storage::{Key, WriteSet, WsOp};
use std::collections::BTreeMap;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// The tocommit queue's holes vs a naive model
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct NaiveHoles {
    pending: Vec<u64>,
    committed: Vec<u64>,
}

impl NaiveHoles {
    fn holes_exist(&self) -> bool {
        let max_c = self.committed.iter().copied().max().unwrap_or(0);
        self.pending.iter().any(|&t| t < max_c)
    }

    fn creates_new_hole(&self, tid: u64) -> bool {
        let max_c = self.committed.iter().copied().max().unwrap_or(0);
        self.pending.iter().any(|&t| t > max_c && t < tid)
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

    /// Queue tids in order, commit them in a random order, and compare every
    /// hole observable against the brute-force model.
    #[test]
    fn queue_holes_match_naive_model(commit_order in Just(()).prop_perturb(|_, mut rng| {
        // Random permutation of 1..=n as the commit order.
        let n = (rng.random::<u64>() % 12) + 1;
        let mut v: Vec<u64> = (1..=n).collect();
        for i in (1..v.len()).rev() {
            let j = (rng.random::<u64>() as usize) % (i + 1);
            v.swap(i, j);
        }
        v
    })) {
        let n = commit_order.len() as u64;
        let mut queue = TocommitQueue::default();
        let mut naive = NaiveHoles::default();
        for t in 1..=n {
            let xact = XactId { origin: ReplicaId::new(0), seq: t };
            queue.push(QEntry::new(GlobalTid::new(t), xact, Arc::new(WriteSet::new()), false));
            naive.pending.push(t);
        }
        for &t in &commit_order {
            prop_assert_eq!(queue.holes_exist(), naive.holes_exist(), "before committing {}", t);
            prop_assert_eq!(
                queue.creates_new_hole(GlobalTid::new(t)),
                naive.creates_new_hole(t),
                "creates_new_hole({})", t
            );
            // The liveness invariant: the smallest pending tid never
            // creates a new hole.
            let min_pending = *naive.pending.iter().min().unwrap();
            prop_assert!(!queue.creates_new_hole(GlobalTid::new(min_pending)));
            queue.remove(GlobalTid::new(t));
            naive.pending.retain(|&x| x != t);
            naive.committed.push(t);
        }
        prop_assert!(!queue.holes_exist(), "all committed → no holes");
    }
}

// ---------------------------------------------------------------------------
// WsList vs a naive certification model
// ---------------------------------------------------------------------------

fn ws_of(keys: &[i64]) -> Arc<WriteSet> {
    let mut w = WriteSet::new();
    for &k in keys {
        w.push(Arc::from("t"), Key::single(k), WsOp::Delete);
    }
    Arc::new(w)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, .. ProptestConfig::default() })]

    /// `WsList::passes` equals the definition: no conflicting entry with
    /// tid > cert.
    #[test]
    fn validation_matches_definition(
        entries in prop::collection::vec(prop::collection::vec(0i64..15, 1..4), 1..20),
        candidate in prop::collection::vec(0i64..15, 1..4),
        cert_lag in 0usize..20,
    ) {
        let mut list = WsList::new();
        let mut tids = Vec::new();
        for (i, keys) in entries.iter().enumerate() {
            let tid = list.append(
                XactId { origin: ReplicaId::new(0), seq: i as u64 },
                ws_of(keys),
            );
            tids.push((tid, keys.clone()));
        }
        let cert = GlobalTid::new(
            (entries.len() as u64).saturating_sub(cert_lag as u64),
        );
        let cand = ws_of(&candidate);
        let expected = !tids.iter().any(|(tid, keys)| {
            *tid > cert && keys.iter().any(|k| candidate.contains(k))
        });
        prop_assert_eq!(list.passes(cert, &cand), expected);
    }
}

// ---------------------------------------------------------------------------
// 1-copy-SI checker: metamorphic properties
// ---------------------------------------------------------------------------

// Serial executions — every transaction runs and commits alone, applied in
// the same order at every replica — are always 1-copy-SI.
proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    #[test]
    fn serial_executions_always_pass(
        specs in prop::collection::vec(
            (
                prop::collection::btree_set(0u8..6, 0..3),
                prop::collection::btree_set(0u8..6, 0..3),
                0usize..3,
            ),
            1..8,
        )
    ) {
        let mut txs: BTreeMap<u32, TxSpec> = BTreeMap::new();
        let mut locality = BTreeMap::new();
        for (i, (reads, writes, local)) in specs.iter().enumerate() {
            let id = i as u32;
            txs.insert(
                id,
                TxSpec::new(
                    reads.iter().map(std::string::ToString::to_string),
                    writes.iter().map(std::string::ToString::to_string),
                ),
            );
            locality.insert(id, *local);
        }
        // Serial schedule at each replica: update txns everywhere,
        // read-only ones only at their local replica.
        let mut schedules: Vec<Schedule<u32>> = vec![Vec::new(); 3];
        for (id, spec) in &txs {
            for (k, sched) in schedules.iter_mut().enumerate() {
                let local = locality[id] == k;
                if spec.is_update() || local {
                    sched.push(Op::Begin(*id));
                    sched.push(Op::Commit(*id));
                }
            }
        }
        let exec = ReplicatedExecution { schedules, locality };
        let witness = check_one_copy_si(&txs, &exec);
        prop_assert!(witness.is_ok(), "serial execution rejected: {:?}", witness.err());
        // And the witness itself is a valid SI-schedule.
        prop_assert!(is_si_schedule(&txs, &witness.unwrap()).is_ok());
    }

    /// Renaming replicas (permuting which schedule is "replica 0") never
    /// changes the verdict.
    #[test]
    fn checker_is_replica_symmetric(
        writes_a in prop::collection::btree_set(0u8..4, 1..3),
        writes_b in prop::collection::btree_set(0u8..4, 1..3),
        flip in any::<bool>(),
    ) {
        let mut txs = BTreeMap::new();
        txs.insert(0u32, TxSpec::new([] as [String; 0], writes_a.iter().map(std::string::ToString::to_string)));
        txs.insert(1u32, TxSpec::new([] as [String; 0], writes_b.iter().map(std::string::ToString::to_string)));
        use Op::{Begin as B, Commit as C};
        let s0 = vec![B(0), C(0), B(1), C(1)];
        let s1 = if flip { vec![B(1), C(1), B(0), C(0)] } else { s0.clone() };
        let exec_fwd = ReplicatedExecution {
            schedules: vec![s0.clone(), s1.clone()],
            locality: [(0, 0), (1, 1)].into_iter().collect(),
        };
        let exec_rev = ReplicatedExecution {
            schedules: vec![s1, s0],
            locality: [(0, 1), (1, 0)].into_iter().collect(),
        };
        prop_assert_eq!(
            check_one_copy_si(&txs, &exec_fwd).is_ok(),
            check_one_copy_si(&txs, &exec_rev).is_ok()
        );
    }
}
