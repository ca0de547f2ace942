//! Certification: the `ws_list` and the validation test.
//!
//! A transaction `T_i` passes validation iff no transaction that validated
//! after `T_i.cert` has an overlapping writeset (SRCA step I.3.d / SRCA-Rep
//! step II.2):
//!
//! > if ∃ Tj ∈ ws_list such that Ti.cert < Tj.tid ∧ Ti.WS ∩ Tj.WS ≠ ∅
//! > then abort else Ti.tid := ++lastvalidated.
//!
//! Every replica runs this test in total-order delivery order with the same
//! inputs, so every replica assigns the same `tid`s and makes the same
//! decisions — the heart of the paper's determinism argument.
//!
//! ## Key-indexed certification
//!
//! The paper's formulation is a reverse scan: every certified entry newer
//! than `cert`, pairwise-intersected with the candidate — O(list · |ws|)
//! per delivered writeset, all of it on the single total-order delivery
//! thread. [`WsList`] instead maintains a **last-certifier index**: for
//! every tuple id written by a live entry, the highest tid that wrote it.
//! The test collapses to O(|ws|) hash probes, because
//!
//! > ∃ Tj ∈ ws_list: cert < Tj.tid ∧ WS ∩ Tj.WS ≠ ∅
//! > ⟺ ∃ id ∈ WS: max{ Tj.tid | Tj live, id ∈ Tj.WS } > cert
//!
//! and the index stores exactly that per-id maximum. [`WsList::append`]
//! overwrites the index entries of the keys it writes (the new tid is
//! always the largest), and pruning removes an index entry only when the
//! pruned list entry *is* the last certifier of that key — so the index is
//! always exactly `{id → max live tid writing id}` and verdicts are
//! bit-for-bit those of the scan. [`WsList::passes_scan`] keeps the paper's
//! literal formulation as the differential oracle (and bench baseline).
//!
//! The `ws_list` would grow without bound; entries with
//! `tid <= min(cert of any future message)` can never participate in a
//! validation again. Replicas advertise their `lastvalidated` (piggybacked
//! on every writeset's `cert`, plus explicit [`ReplMsg::Progress`] messages
//! when idle), and the list is pruned below the group-wide minimum.
//!
//! [`ReplMsg::Progress`]: crate::msg::ReplMsg::Progress

use crate::msg::XactId;
use sirep_common::{GlobalTid, ReplicaId};
use sirep_storage::{TupleId, WriteSet};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// One validated writeset.
#[derive(Debug, Clone)]
pub struct CertEntry {
    pub tid: GlobalTid,
    pub xact: XactId,
    pub ws: Arc<WriteSet>,
}

/// The list of validated writesets, ordered by tid (ascending), plus the
/// last-certifier index that makes validation O(|ws|).
#[derive(Debug, Default, Clone)]
pub struct WsList {
    entries: VecDeque<CertEntry>,
    last_tid: GlobalTid,
    /// Latest `lastvalidated` advertised by each replica (for pruning).
    progress: HashMap<ReplicaId, GlobalTid>,
    /// The group-wide minimum of `progress` as last computed: every entry
    /// at or below it has been pruned.
    watermark: GlobalTid,
    /// Tuple id → tid of the newest live entry that wrote it. Invariants
    /// (checked by the differential property test and `debug_validate`):
    /// the domain is exactly the tuple ids written by live entries, and the
    /// value is the maximum tid among the live writers of that id.
    last_certifier: HashMap<TupleId, GlobalTid>,
}

impl WsList {
    pub fn new() -> WsList {
        WsList::default()
    }

    /// `lastvalidated_tid`: the tid of the most recently validated txn.
    pub fn last_tid(&self) -> GlobalTid {
        self.last_tid
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The prune watermark: every entry at or below it is gone.
    pub fn watermark(&self) -> GlobalTid {
        self.watermark
    }

    /// The progress each replica advertised, by replica.
    pub fn progress(&self) -> Vec<(ReplicaId, GlobalTid)> {
        let mut progress: Vec<_> = self.progress.iter().map(|(&r, &t)| (r, t)).collect();
        progress.sort();
        progress
    }

    /// Number of keys tracked by the last-certifier index (bounded by the
    /// total tuple count of live entries; exported as a gauge).
    pub fn index_len(&self) -> usize {
        self.last_certifier.len()
    }

    /// The validation test: does `ws` conflict with any entry validated
    /// after `cert`? O(|ws|) index probes.
    pub fn passes(&self, cert: GlobalTid, ws: &WriteSet) -> bool {
        ws.tuple_ids().all(|id| self.last_certifier.get(id).is_none_or(|&last| last <= cert))
    }

    /// The paper's literal reverse-scan formulation of the validation test
    /// — O(list · |ws|). Kept as the differential oracle for [`Self::passes`]
    /// (Theorem 1 verdicts must be bit-for-bit identical) and as the
    /// baseline of the certification micro-bench.
    pub fn passes_scan(&self, cert: GlobalTid, ws: &WriteSet) -> bool {
        // Entries are tid-ascending; scan from the back and stop at cert.
        for e in self.entries.iter().rev() {
            if e.tid <= cert {
                break;
            }
            if e.ws.intersects(ws) {
                return false;
            }
        }
        true
    }

    /// Assign the next tid and append (the caller must have called
    /// [`WsList::passes`] under the same lock).
    pub fn append(&mut self, xact: XactId, ws: Arc<WriteSet>) -> GlobalTid {
        self.last_tid = self.last_tid.next();
        for id in ws.tuple_ids() {
            // The fresh tid is larger than every live one: overwrite.
            self.last_certifier.insert(id.clone(), self.last_tid);
        }
        self.entries.push_back(CertEntry { tid: self.last_tid, xact, ws });
        self.last_tid
    }

    /// Record a replica's advertised progress and prune entries no future
    /// message can be certified against. `alive` lists replicas still in
    /// the view (crashed replicas must not hold the watermark back).
    ///
    /// Returns the new group-wide watermark and how many entries this call
    /// pruned whenever the watermark *moved* — every move is journaled, so
    /// the audit sees a regression (which prunes nothing) as well as an
    /// advance — and `None` when it stayed put or some live replica has yet
    /// to report.
    ///
    /// Cost: O(|alive| + pruned work) — each pruned entry pays O(|ws|) to
    /// drop its index keys, and a key is dropped only when the pruned entry
    /// is still its last certifier.
    pub fn advance_progress(
        &mut self,
        from: ReplicaId,
        lastvalidated: GlobalTid,
        alive: &[ReplicaId],
    ) -> Option<(GlobalTid, u64)> {
        let e = self.progress.entry(from).or_insert(GlobalTid::ZERO);
        *e = (*e).max(lastvalidated);
        // A view is a handful of replicas: a scan of it beats building a set
        // for every delivered writeset.
        self.progress.retain(|r, _| alive.contains(r));
        // Until every live replica has reported at least once, don't prune.
        if alive.iter().any(|r| !self.progress.contains_key(r)) {
            return None;
        }
        let watermark = self.progress.values().copied().min().unwrap_or(GlobalTid::ZERO);
        if watermark == self.watermark {
            return None;
        }
        self.watermark = watermark;
        let mut removed = 0u64;
        while self.entries.front().is_some_and(|e| e.tid <= watermark) {
            let e = self.entries.pop_front().expect("front checked above");
            for id in e.ws.tuple_ids() {
                if let Entry::Occupied(o) = self.last_certifier.entry(id.clone()) {
                    // A newer live entry re-certified this key: keep it.
                    if *o.get() == e.tid {
                        o.remove();
                    }
                }
            }
            removed += 1;
        }
        Some((watermark, removed))
    }

    /// Iterate entries with `tid > cert`.
    pub fn entries_after(&self, cert: GlobalTid) -> impl Iterator<Item = &CertEntry> {
        self.entries.iter().filter(move |e| e.tid > cert)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirep_storage::{Key, WsOp};

    fn ws(keys: &[i64]) -> Arc<WriteSet> {
        let mut w = WriteSet::new();
        for &k in keys {
            w.push(Arc::from("t"), Key::single(k), WsOp::Delete);
        }
        Arc::new(w)
    }

    fn xact(seq: u64) -> XactId {
        XactId { origin: ReplicaId::new(0), seq }
    }

    #[test]
    fn tids_are_dense_and_increasing() {
        let mut l = WsList::new();
        assert_eq!(l.last_tid(), GlobalTid::ZERO);
        let t1 = l.append(xact(1), ws(&[1]));
        let t2 = l.append(xact(2), ws(&[2]));
        assert_eq!(t1, GlobalTid::new(1));
        assert_eq!(t2, GlobalTid::new(2));
        assert_eq!(l.last_tid(), t2);
    }

    #[test]
    fn validation_checks_only_after_cert() {
        let mut l = WsList::new();
        l.append(xact(1), ws(&[1])); // tid 1
        l.append(xact(2), ws(&[2])); // tid 2
                                     // cert = 0: conflicts with tid 1.
        assert!(!l.passes(GlobalTid::ZERO, &ws(&[1])));
        // cert = 1: tid 1 is no longer concurrent → passes.
        assert!(l.passes(GlobalTid::new(1), &ws(&[1])));
        // cert = 1 but conflicts with tid 2 → fails.
        assert!(!l.passes(GlobalTid::new(1), &ws(&[2])));
        // Disjoint always passes.
        assert!(l.passes(GlobalTid::ZERO, &ws(&[99])));
    }

    #[test]
    fn rewritten_key_tracks_newest_certifier() {
        let mut l = WsList::new();
        l.append(xact(1), ws(&[7])); // tid 1 writes key 7
        l.append(xact(2), ws(&[7])); // tid 2 re-writes key 7
        assert_eq!(l.index_len(), 1, "one key, one index entry");
        // cert = 1 still conflicts: the *newest* certifier of key 7 is 2.
        assert!(!l.passes(GlobalTid::new(1), &ws(&[7])));
        assert!(l.passes(GlobalTid::new(2), &ws(&[7])));
    }

    #[test]
    fn progress_pruning_waits_for_all_replicas() {
        let mut l = WsList::new();
        for i in 1..=10 {
            l.append(xact(i), ws(&[i as i64]));
        }
        let alive = vec![ReplicaId::new(0), ReplicaId::new(1)];
        let _ = l.advance_progress(ReplicaId::new(0), GlobalTid::new(10), &alive);
        assert_eq!(l.len(), 10, "must not prune before all replicas report");
        let _ = l.advance_progress(ReplicaId::new(1), GlobalTid::new(4), &alive);
        assert_eq!(l.len(), 6, "prunes to min watermark");
        // Validation against surviving entries still works.
        assert!(!l.passes(GlobalTid::new(4), &ws(&[5])));
    }

    #[test]
    fn crashed_replicas_do_not_hold_watermark() {
        let mut l = WsList::new();
        for i in 1..=5 {
            l.append(xact(i), ws(&[i as i64]));
        }
        let both = vec![ReplicaId::new(0), ReplicaId::new(1)];
        let _ = l.advance_progress(ReplicaId::new(0), GlobalTid::new(5), &both);
        let _ = l.advance_progress(ReplicaId::new(1), GlobalTid::new(1), &both);
        assert_eq!(l.len(), 4);
        // R1 crashes; its stale watermark is dropped.
        let only0 = vec![ReplicaId::new(0)];
        let _ = l.advance_progress(ReplicaId::new(0), GlobalTid::new(5), &only0);
        assert_eq!(l.len(), 0);
    }

    #[test]
    fn progress_is_monotonic() {
        let mut l = WsList::new();
        for i in 1..=3 {
            l.append(xact(i), ws(&[i as i64]));
        }
        let alive = vec![ReplicaId::new(0)];
        let _ = l.advance_progress(ReplicaId::new(0), GlobalTid::new(3), &alive);
        assert!(l.is_empty());
        // A stale (smaller) report cannot resurrect anything or regress.
        let _ = l.advance_progress(ReplicaId::new(0), GlobalTid::new(1), &alive);
        assert!(l.is_empty());
    }

    /// Pruning is O(pruned): the index never outlives the entries that feed
    /// it, so its size tracks the live tuple count exactly — no residue
    /// accumulates across prune cycles.
    #[test]
    fn index_size_tracks_live_entries_through_pruning() {
        let mut l = WsList::new();
        let alive = vec![ReplicaId::new(0)];
        // Disjoint single-key writesets: index_len == live entry count.
        for i in 1..=100 {
            l.append(xact(i), ws(&[i as i64]));
        }
        assert_eq!(l.index_len(), 100);
        let (_, removed) = l
            .advance_progress(ReplicaId::new(0), GlobalTid::new(60), &alive)
            .expect("sole replica reported");
        assert_eq!(removed, 60);
        assert_eq!(l.len(), 40);
        assert_eq!(l.index_len(), 40, "pruned entries must drop their index keys");
        // Overlapping writers: the shared key stays owned by the newest —
        // the re-write transfers ownership instead of adding an entry.
        l.append(xact(200), ws(&[70])); // key 70 also written by tid 70
        assert_eq!(l.index_len(), 40);
        let (_, _) = l
            .advance_progress(ReplicaId::new(0), GlobalTid::new(100), &alive)
            .expect("sole replica reported");
        assert_eq!(l.len(), 1, "only tid 101 (the re-writer) survives");
        assert_eq!(l.index_len(), 1, "key 70 still indexed — by its newest writer");
        assert!(!l.passes(GlobalTid::new(100), &ws(&[70])));
        // Full prune leaves a completely empty index.
        let _ = l.advance_progress(ReplicaId::new(0), l.last_tid(), &alive);
        assert!(l.is_empty());
        assert_eq!(l.index_len(), 0);
    }

    /// The indexed test and the paper's scan agree on *every* cert value,
    /// including ones below the prune watermark (the protocol never sends
    /// those, but the equivalence is unconditional).
    #[test]
    fn indexed_and_scan_agree_after_pruning() {
        let mut l = WsList::new();
        let alive = vec![ReplicaId::new(0)];
        for i in 1..=20 {
            l.append(xact(i), ws(&[(i % 7) as i64]));
        }
        let _ = l.advance_progress(ReplicaId::new(0), GlobalTid::new(12), &alive);
        for cert in 0..=20 {
            for key in 0..8 {
                let cand = ws(&[key]);
                let cert = GlobalTid::new(cert);
                assert_eq!(
                    l.passes(cert, &cand),
                    l.passes_scan(cert, &cand),
                    "divergence at cert {cert}, key {key}"
                );
            }
        }
    }
}

#[cfg(test)]
mod differential {
    //! The differential property test guarding Theorem 1: a replica running
    //! the key-indexed validation and a replica running the paper's scan
    //! formulation, fed the same total-order stream (writesets + progress
    //! messages), must produce identical verdicts AND identical tid
    //! assignments — otherwise replicas would diverge silently.

    use super::*;
    use proptest::prelude::*;
    use sirep_storage::{Key, WsOp};

    #[derive(Debug, Clone)]
    enum Msg {
        /// A writeset over the given keys, with cert lagging `last_tid` by
        /// `cert_lag` (saturating at zero).
        WriteSet { keys: Vec<i64>, cert_lag: u64 },
        /// A progress report from one of three replicas, `lag` behind.
        Progress { from: u64, lag: u64 },
    }

    fn msg() -> impl Strategy<Value = Msg> {
        prop_oneof![
            4 => (proptest::collection::vec(0i64..40, 1..6), 0u64..12)
                .prop_map(|(keys, cert_lag)| Msg::WriteSet { keys, cert_lag }),
            1 => (0u64..3, 0u64..10).prop_map(|(from, lag)| Msg::Progress { from, lag }),
        ]
    }

    fn build_ws(keys: &[i64]) -> Arc<WriteSet> {
        let mut w = WriteSet::new();
        for &k in keys {
            w.push(Arc::from("t"), Key::single(k), WsOp::Delete);
        }
        Arc::new(w)
    }

    proptest! {
        #[test]
        fn indexed_replica_matches_scan_replica(stream in proptest::collection::vec(msg(), 1..120)) {
            let alive: Vec<ReplicaId> = (0..3).map(ReplicaId::new).collect();
            let mut indexed = WsList::new(); // replica A: key-indexed passes
            let mut scan = WsList::new();    // replica B: the paper's scan
            let mut seq = 0u64;
            for m in &stream {
                match m {
                    Msg::WriteSet { keys, cert_lag } => {
                        seq += 1;
                        let ws = build_ws(keys);
                        let cert =
                            GlobalTid::new(indexed.last_tid().raw().saturating_sub(*cert_lag));
                        let va = indexed.passes(cert, &ws);
                        let vb = scan.passes_scan(cert, &ws);
                        prop_assert_eq!(va, vb, "verdict divergence at seq {}", seq);
                        if va {
                            let xact = XactId { origin: ReplicaId::new(0), seq };
                            let ta = indexed.append(xact, Arc::clone(&ws));
                            let tb = scan.append(xact, ws);
                            prop_assert_eq!(ta, tb, "tid divergence at seq {}", seq);
                        }
                    }
                    Msg::Progress { from, lag } => {
                        let lv = GlobalTid::new(indexed.last_tid().raw().saturating_sub(*lag));
                        let ra = indexed.advance_progress(ReplicaId::new(*from), lv, &alive);
                        let rb = scan.advance_progress(ReplicaId::new(*from), lv, &alive);
                        prop_assert_eq!(ra, rb, "prune divergence at seq {}", seq);
                    }
                }
                prop_assert_eq!(indexed.len(), scan.len());
                // Index invariant: the domain is the live entries' tuple
                // ids, so it can never exceed their total tuple count.
                let live_tuples: usize =
                    indexed.entries_after(GlobalTid::ZERO).map(|e| e.ws.len()).sum();
                prop_assert!(indexed.index_len() <= live_tuples,
                    "index has {} keys but live entries only carry {} tuples",
                    indexed.index_len(), live_tuples);
            }
        }
    }
}
