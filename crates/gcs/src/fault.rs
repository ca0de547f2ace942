//! Seeded fault injection for the simulated GCS.
//!
//! The paper's correctness argument (Theorem 1, §5.4) assumes uniform
//! total-order delivery over a crash-stop network; the base simulation only
//! models *latency*.  This module adds an adversary that perturbs delivery
//! without ever breaking the service-level contract the middleware is
//! entitled to:
//!
//! - **Drop**: the first delivery attempt of a copy is lost and the copy
//!   arrives later via a simulated retransmission.  A uniform reliable
//!   multicast never silently loses a message to a live member — drops
//!   manifest as extra latency, exactly as Spread's retransmission does.
//! - **ExtraDelay**: the copy is delayed beyond the configured latency.
//! - **Partitions** (driven by [`FaultConfig::partition_prob`] or
//!   explicitly via `Group::partition`): isolated members stop receiving —
//!   their cursors are *bounded* at the log index where the partition
//!   began, nothing is dropped — and their own multicasts are held
//!   unsequenced.  Healing lifts the bound and then sequences the held
//!   sends, so one total order is preserved; the minority simply observes
//!   it late.
//!
//! **Determinism pillar**: every per-copy decision is a pure function of
//! `(seed, message_index, member)` — *not* a sequential RNG draw — so the
//! schedule is independent of member-map iteration order and thread timing.
//! Each fault folds into a running FNV-1a fingerprint; replaying the same
//! seed over the same message stream reproduces a byte-identical schedule
//! (see `fault_schedule_is_deterministic` in the chaos harness).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sirep_common::journal::FaultKind;
use sirep_common::{EventKind, Gauge, Journal, ReplicaId};
use std::collections::BTreeSet;

/// The journal "replica" that network-level fault events are attributed to:
/// faults belong to the wire, not to any one replica.
pub const NETWORK_REPLICA: ReplicaId = ReplicaId::new(u64::MAX);

/// Retained fault-log records before the log stops growing (the running
/// fingerprint keeps covering everything).
const FAULT_LOG_CAP: usize = 1 << 16;

/// Probabilities and magnitudes for the seeded fault plan.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Seed for the deterministic per-copy decisions.
    pub seed: u64,
    /// Probability a delivery copy's first attempt is dropped (it then
    /// arrives after `retransmit_delay_ms`).
    pub drop_prob: f64,
    /// Probability a copy is delayed by up to `extra_delay_ms`.
    pub delay_prob: f64,
    /// Maximum extra delay, in model milliseconds.
    pub extra_delay_ms: f64,
    /// Simulated retransmission latency for dropped copies, model ms.
    pub retransmit_delay_ms: f64,
    /// Probability (checked per multicast, while no partition is active)
    /// that a partition starts isolating a random minority of members.
    pub partition_prob: f64,
    /// How many subsequent multicasts a planned partition lasts before the
    /// plan heals it.
    pub partition_len_msgs: u64,
}

impl FaultConfig {
    /// No random faults at all — used when only explicit `partition`/`heal`
    /// control or crash-points are wanted, while keeping the fault journal
    /// and gauges live.
    pub fn quiet(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            drop_prob: 0.0,
            delay_prob: 0.0,
            extra_delay_ms: 0.0,
            retransmit_delay_ms: 0.0,
            partition_prob: 0.0,
            partition_len_msgs: 0,
        }
    }

    /// The chaos-harness default mix: frequent small perturbations, rare
    /// short partitions.
    pub fn chaos(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            drop_prob: 0.08,
            delay_prob: 0.15,
            extra_delay_ms: 2.0,
            retransmit_delay_ms: 1.0,
            partition_prob: 0.01,
            partition_len_msgs: 40,
        }
    }
}

/// What the plan decided for one delivery copy.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultDecision {
    pub drop: bool,
    /// Extra model-ms latency (0.0 = none).
    pub extra_delay_ms: f64,
}

/// One entry of the reproducible fault schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultRecord {
    /// Copy `msg` → `member` was perturbed.
    Fault { msg: u64, member: u64, kind: FaultKind },
    /// A partition isolating `isolated` started at message index `msg`.
    PartitionStart { msg: u64, isolated: Vec<u64> },
    /// The partition healed at message index `msg`, releasing `flushed`
    /// deliveries: the entries appended since it began, once per isolated
    /// member.
    PartitionHeal { msg: u64, flushed: u64 },
}

/// Mix `(seed, msg, member)` into an RNG so each decision is independent of
/// every other decision's evaluation order (splitmix64-style finalizer).
fn decision_rng(seed: u64, msg: u64, member: u64) -> SmallRng {
    let mut h = seed ^ msg.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= member.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 30;
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 31;
    SmallRng::seed_from_u64(h)
}

/// Sentinel "member" mixed in for per-message (member-independent)
/// decisions such as partition starts.
const PARTITION_SALT: u64 = u64::MAX - 1;

/// Fold one word into an FNV-1a fingerprint.
fn fnv_fold(h: u64, word: u64) -> u64 {
    let mut h = h;
    for b in word.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Mutable fault-plan state, owned by the group and mutated only under the
/// group lock (so records and journal events are totally ordered too).
pub(crate) struct FaultState {
    pub cfg: FaultConfig,
    journal: Journal,
    /// Global message index: one per broadcast, the x-axis of the schedule.
    msg_index: u64,
    /// Members (raw ids) currently cut off by a partition.
    pub isolated: BTreeSet<u64>,
    /// When the *plan* (not an explicit call) started the current
    /// partition: the message index at which it heals.
    plan_heal_at: Option<u64>,
    /// The current partition was installed via the explicit API and only
    /// heals explicitly.
    explicit: bool,
    log: Vec<FaultRecord>,
    fingerprint: u64,
    records: u64,
    /// Total faults injected (monotone gauge).
    pub injected: Gauge,
    /// Currently isolated member count / widest partition ever.
    pub partitioned: Gauge,
}

impl FaultState {
    pub fn new(cfg: FaultConfig, journal: Journal) -> FaultState {
        FaultState {
            cfg,
            journal,
            msg_index: 0,
            isolated: BTreeSet::new(),
            plan_heal_at: None,
            explicit: false,
            log: Vec::new(),
            fingerprint: FNV_OFFSET,
            records: 0,
            injected: Gauge::new(),
            partitioned: Gauge::new(),
        }
    }

    /// Claim the next message index (call once per broadcast).
    pub fn next_msg(&mut self) -> u64 {
        let m = self.msg_index;
        self.msg_index += 1;
        m
    }

    pub fn current_msg(&self) -> u64 {
        self.msg_index
    }

    /// The planned partition's heal point has been reached.
    pub fn plan_heal_due(&self) -> bool {
        !self.explicit && self.plan_heal_at.is_some_and(|at| self.msg_index >= at)
    }

    /// Pure per-copy decision for message `msg` delivered to `member`.
    pub fn decide(&self, msg: u64, member: u64) -> FaultDecision {
        let c = &self.cfg;
        let mut rng = decision_rng(c.seed, msg, member);
        // Draw in a fixed order so the decision tuple is stable.
        let drop = c.drop_prob > 0.0 && rng.gen_bool(c.drop_prob);
        let delayed = c.delay_prob > 0.0 && rng.gen_bool(c.delay_prob);
        let extra_delay_ms = if delayed && c.extra_delay_ms > 0.0 {
            // Quantize to 1/64 ms so the magnitude folds into the
            // fingerprint as a small exact integer.
            (rng.gen_range(1..=64) as f64 / 64.0) * c.extra_delay_ms
        } else {
            0.0
        };
        FaultDecision { drop, extra_delay_ms }
    }

    /// Should a planned partition start at message `msg`, and whom does it
    /// isolate?  `live` must be the sorted raw ids of live members.
    pub fn plan_partition(&self, msg: u64, live: &[u64]) -> Option<Vec<u64>> {
        let c = &self.cfg;
        if c.partition_prob == 0.0
            || c.partition_len_msgs == 0
            || !self.isolated.is_empty()
            || live.len() < 2
        {
            return None;
        }
        let mut rng = decision_rng(c.seed, msg, PARTITION_SALT);
        if !rng.gen_bool(c.partition_prob) {
            return None;
        }
        // Isolate a strict minority-or-half subset (at least 1, at most
        // len-1) chosen deterministically from the sorted live list.
        let count = rng.gen_range(1..live.len());
        let mut picked = BTreeSet::new();
        while picked.len() < count {
            picked.insert(live[rng.gen_range(0..live.len())]);
        }
        Some(picked.into_iter().collect())
    }

    pub fn begin_partition(&mut self, msg: u64, isolated: Vec<u64>, explicit: bool) {
        self.partitioned.set(isolated.len() as u64);
        self.journal.record(EventKind::PartitionStarted { isolated: isolated.len() as u64 });
        self.isolated = isolated.iter().copied().collect();
        self.explicit = explicit;
        self.plan_heal_at =
            if explicit { None } else { Some(msg.saturating_add(self.cfg.partition_len_msgs)) };
        self.push_record(FaultRecord::PartitionStart { msg, isolated });
    }

    /// Clear partition state; the group reports via `flushed` how many
    /// deliveries the bounded cursors were kept from.
    pub fn end_partition(&mut self, flushed: u64) {
        self.isolated.clear();
        self.plan_heal_at = None;
        self.explicit = false;
        self.partitioned.set(0);
        self.journal.record(EventKind::PartitionHealed { flushed });
        let msg = self.msg_index;
        self.push_record(FaultRecord::PartitionHeal { msg, flushed });
    }

    /// A member crashed: it can no longer be isolated.
    pub fn forget_member(&mut self, member: u64) {
        if self.isolated.remove(&member) {
            self.partitioned.set(self.isolated.len() as u64);
        }
    }

    /// Record one injected per-copy fault.
    pub fn note(&mut self, kind: FaultKind, msg: u64, member: u64) {
        self.injected.add(1);
        self.journal.record(EventKind::FaultInjected { fault: kind, msg, member });
        self.push_record(FaultRecord::Fault { msg, member, kind });
    }

    fn push_record(&mut self, rec: FaultRecord) {
        self.records += 1;
        self.fingerprint = match &rec {
            FaultRecord::Fault { msg, member, kind } => {
                let k = match kind {
                    FaultKind::Drop => 1,
                    FaultKind::ExtraDelay => 3,
                };
                fnv_fold(fnv_fold(fnv_fold(self.fingerprint, *msg), *member), k)
            }
            FaultRecord::PartitionStart { msg, isolated } => {
                let mut h = fnv_fold(fnv_fold(self.fingerprint, 0x10), *msg);
                for m in isolated {
                    h = fnv_fold(h, *m);
                }
                h
            }
            FaultRecord::PartitionHeal { msg, flushed } => {
                fnv_fold(fnv_fold(fnv_fold(self.fingerprint, 0x11), *msg), *flushed)
            }
        };
        if self.log.len() < FAULT_LOG_CAP {
            self.log.push(rec);
        }
    }

    /// `(fnv1a_fingerprint, record_count)` over every record ever made —
    /// the pair the chaos harness compares across seed replays.
    pub fn fingerprint(&self) -> (u64, u64) {
        (self.fingerprint, self.records)
    }

    pub fn log(&self) -> Vec<FaultRecord> {
        self.log.clone()
    }

    pub fn journal(&self) -> &Journal {
        &self.journal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_pure_functions_of_inputs() {
        let st = FaultState::new(FaultConfig::chaos(7), Journal::new(NETWORK_REPLICA));
        for msg in 0..64 {
            for member in 0..4 {
                assert_eq!(st.decide(msg, member), st.decide(msg, member));
            }
        }
        // A different seed gives a different schedule somewhere.
        let other = FaultState::new(FaultConfig::chaos(8), Journal::new(NETWORK_REPLICA));
        assert!(
            (0..256).any(|m| st.decide(m, 0) != other.decide(m, 0)),
            "seeds 7 and 8 produced identical 256-message schedules"
        );
    }

    #[test]
    fn quiet_plan_injects_nothing() {
        let st = FaultState::new(FaultConfig::quiet(1), Journal::new(NETWORK_REPLICA));
        for msg in 0..128 {
            assert_eq!(st.decide(msg, 0), FaultDecision::default());
            assert!(st.plan_partition(msg, &[0, 1, 2]).is_none());
        }
    }

    #[test]
    fn fingerprint_reflects_records_in_order() {
        let run = || {
            let mut st = FaultState::new(FaultConfig::chaos(3), Journal::new(NETWORK_REPLICA));
            st.note(FaultKind::Drop, 0, 1);
            st.begin_partition(1, vec![2], false);
            st.end_partition(4);
            st.note(FaultKind::ExtraDelay, 2, 0);
            (st.fingerprint(), st.log())
        };
        assert_eq!(run(), run());
        let (fp, _) = run();
        let mut reordered = FaultState::new(FaultConfig::chaos(3), Journal::new(NETWORK_REPLICA));
        reordered.note(FaultKind::ExtraDelay, 2, 0);
        reordered.note(FaultKind::Drop, 0, 1);
        assert_ne!(reordered.fingerprint().0, fp.0);
    }

    #[test]
    fn planned_partitions_isolate_a_proper_subset() {
        let st = FaultState::new(
            FaultConfig { partition_prob: 1.0, partition_len_msgs: 10, ..FaultConfig::quiet(5) },
            Journal::new(NETWORK_REPLICA),
        );
        let live = [0u64, 1, 2, 3];
        let picked = st.plan_partition(9, &live).expect("prob 1.0 must partition");
        assert!(!picked.is_empty() && picked.len() < live.len());
        assert!(picked.iter().all(|m| live.contains(m)));
        assert_eq!(picked, st.plan_partition(9, &live).unwrap());
    }
}
