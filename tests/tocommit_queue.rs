//! What `TocommitQueue` tells the code that wakes appliers (core/node.rs,
//! "Who wakes whom"): `push` says whether the entry is ready for an applier,
//! `remove` how many entries it made ready. An applier is woken exactly when
//! one of those says the ready set grew — so if either under-reports, an
//! eligible writeset sits until a `WAIT_TICK` poll finds it. Checked against
//! a recomputation from scratch over random push / claim / unclaim / remove
//! sequences. `unclaim` is how the delivery thread gives back a writeset it
//! claimed but could not apply without waiting.

use proptest::prelude::*;
use si_rep::common::{GlobalTid, ReplicaId};
use si_rep::core::tocommit::{QEntry, TocommitQueue};
use si_rep::core::XactId;
use si_rep::storage::{Key, WriteSet, WsOp};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

#[derive(Debug, Clone)]
enum Op {
    /// Queue the next tid writing these keys; `true`: born running (a local
    /// transaction its session thread commits).
    Push(BTreeSet<i64>, bool),
    /// An applier claims the smallest ready entry.
    Claim,
    /// The i-th claimed entry (modulo) goes back to the ready set.
    Unclaim(usize),
    /// The i-th queued entry (modulo) commits and leaves.
    Remove(usize),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (prop::collection::btree_set(0i64..6, 1..4), any::<bool>())
            .prop_map(|(keys, running)| Op::Push(keys, running)),
        3 => Just(Op::Claim),
        2 => (0usize..16).prop_map(Op::Unclaim),
        4 => (0usize..16).prop_map(Op::Remove),
    ]
}

/// The model: what is queued, by tid.
struct Queued {
    keys: BTreeSet<i64>,
    running: bool,
}

/// Ready from scratch: not running, and no queued entry with a smaller tid
/// writes one of its keys.
fn ready(model: &BTreeMap<u64, Queued>) -> BTreeSet<u64> {
    model
        .iter()
        .filter(|(tid, e)| {
            !e.running && model.range(..**tid).all(|(_, pred)| pred.keys.is_disjoint(&e.keys))
        })
        .map(|(tid, _)| *tid)
        .collect()
}

/// Claim every ready entry, smallest first.
fn drain(queue: &mut TocommitQueue) -> Vec<u64> {
    std::iter::from_fn(|| queue.pop_ready().map(|e| e.tid.raw())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

    #[test]
    fn push_and_remove_report_exactly_how_the_ready_set_grew(
        ops in prop::collection::vec(op(), 1..120),
    ) {
        let mut queue = TocommitQueue::default();
        let mut model: BTreeMap<u64, Queued> = BTreeMap::new();
        // Claimed and still queued (entries born running are not claims).
        let mut claimed: BTreeSet<u64> = BTreeSet::new();
        let mut next_tid = 0u64;
        for op in ops {
            match op {
                Op::Push(keys, running) => {
                    next_tid += 1;
                    let mut ws = WriteSet::new();
                    for k in &keys {
                        ws.push(Arc::from("t"), Key::single(*k), WsOp::Delete);
                    }
                    let entry = QEntry::new(
                        GlobalTid::new(next_tid),
                        XactId { origin: ReplicaId::new(0), seq: next_tid },
                        Arc::new(ws),
                        ReplicaId::new(0),
                        running,
                    );
                    let said_ready = queue.push(entry);
                    model.insert(next_tid, Queued { keys, running });
                    prop_assert_eq!(said_ready, ready(&model).contains(&next_tid));
                }
                Op::Claim => {
                    let claimed_now = queue.pop_ready().map(|e| e.tid.raw());
                    prop_assert_eq!(claimed_now, ready(&model).first().copied());
                    if let Some(tid) = claimed_now {
                        model.get_mut(&tid).expect("claimed tid is queued").running = true;
                        claimed.insert(tid);
                    }
                }
                Op::Unclaim(i) => {
                    let Some(&tid) = claimed.iter().nth(i % claimed.len().max(1)) else { continue };
                    claimed.remove(&tid);
                    queue.unclaim(GlobalTid::new(tid), 0);
                    model.get_mut(&tid).expect("claimed tid is queued").running = false;
                    // The ready set is the recomputed one: drain it, then
                    // give every entry back.
                    let drained = drain(&mut queue);
                    prop_assert_eq!(&drained, &ready(&model).into_iter().collect::<Vec<_>>());
                    for tid in drained {
                        queue.unclaim(GlobalTid::new(tid), 0);
                    }
                }
                Op::Remove(i) => {
                    let Some(&tid) = model.keys().nth(i % model.len().max(1)) else { continue };
                    let before = ready(&model);
                    model.remove(&tid);
                    claimed.remove(&tid);
                    let entered = ready(&model).difference(&before).count();
                    prop_assert_eq!(queue.remove(GlobalTid::new(tid)), entered);
                }
            }
        }
        // Nothing is left behind unannounced: claiming drains exactly the
        // model's ready set, smallest first.
        prop_assert_eq!(drain(&mut queue), ready(&model).into_iter().collect::<Vec<_>>());
    }
}
