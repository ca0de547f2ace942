//! The simulated group: membership, sequencing, and delivery queues, all in
//! one process. This is the deterministic/chaos backend behind the
//! [`crate::traits`] transport abstraction ([`crate::TcpGroup`] is the real
//! network); SRCA-Rep itself only sees the traits.
//!
//! All sequencing decisions happen under one mutex, which makes the
//! guarantees easy to state and verify:
//!
//! - **Total order**: every total-order multicast is assigned a global
//!   sequence number and enqueued to *every* live member's queue while the
//!   lock is held, so all members see all messages (total-order, FIFO and
//!   view changes) in one consistent stream.
//! - **Uniform reliable delivery**: a multicast either happens-before a
//!   crash (it was sequenced first, so it sits in every survivor's queue
//!   *ahead of* the view change announcing the crash) or it is rejected
//!   (the member was already marked crashed). This is exactly the property
//!   §5.4 of the paper relies on for in-doubt transaction resolution: a new
//!   replica that waits for the crash notification "either receives the
//!   writeset before being informed about the crash or not at all".
//! - **View synchrony**: all members deliver the same view changes at the
//!   same position in the message stream.
//!
//! Network latency is simulated at the *receiver*: each delivery carries the
//! wall-clock instant at which it becomes visible, and [`SimMember::recv`]
//! sleeps until then. Latency is a [`TimeScale`]-scaled model duration, so
//! the paper's "3 ms per uniform reliable multicast in a LAN" (§5.2) is one
//! config knob.
//!
//! A seeded [`FaultConfig`] plan (see [`crate::fault`]) can additionally
//! drop (→ retransmit), duplicate, delay, and partition deliveries without
//! violating the service-level contract above: drops become latency,
//! duplicates are deduped by sequence number on the receive path, and a
//! partition *holds* deliveries (and isolated senders' multicasts) until it
//! heals, preserving the single total order end to end.

use crate::fault::{FaultConfig, FaultRecord, FaultState, NETWORK_REPLICA};
use crate::traits::{Delivery, GcsError, View, HELD_SEND_SEQ};
use parking_lot::Mutex;
use sirep_common::journal::FaultKind;
use sirep_common::{
    precise_sleep, Event, Gauge, GaugeReading, Journal, MemberId, TimeScale,
    DEFAULT_JOURNAL_CAPACITY,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::Instant;

/// SimGroup configuration.
#[derive(Debug, Clone)]
pub struct GroupConfig {
    /// One-way delivery latency for a uniform reliable total-order
    /// multicast, in model milliseconds (the paper cites ≤3 ms).
    pub total_order_delay_ms: f64,
    /// One-way delivery latency for plain FIFO multicast (cheaper: no
    /// stability round).
    pub fifo_delay_ms: f64,
    /// Time for the failure detector to notice a crash and install the new
    /// view ("reconfiguration [...] can take up to a couple of seconds").
    pub detection_delay_ms: f64,
    pub scale: TimeScale,
}

impl GroupConfig {
    /// Zero-latency config for unit tests.
    pub fn instant() -> GroupConfig {
        GroupConfig {
            total_order_delay_ms: 0.0,
            fifo_delay_ms: 0.0,
            detection_delay_ms: 0.0,
            scale: TimeScale::REAL_TIME,
        }
    }

    /// The paper's LAN: ~3 ms uniform total order, ~1 ms FIFO, 1 s failure
    /// detection.
    pub fn lan(scale: TimeScale) -> GroupConfig {
        GroupConfig {
            total_order_delay_ms: 3.0,
            fifo_delay_ms: 1.0,
            detection_delay_ms: 1000.0,
            scale,
        }
    }
}

struct Timed<M> {
    visible_at: Instant,
    delivery: Delivery<M>,
}

struct MemberSlot<M> {
    alive: bool,
    tx: Sender<Timed<M>>,
    /// Monotonic per-member delivery horizon so jittered/mixed latencies
    /// can never reorder the stream.
    horizon: Instant,
    /// Deliveries held back while this member is partition-isolated,
    /// flushed in order at heal.
    held: Vec<Timed<M>>,
}

/// A multicast submitted by a partition-isolated sender: it has not reached
/// the sequencer yet and is sequenced (in submission order) at heal.
enum HeldSend<M> {
    Total { sender: MemberId, msg: M },
    Fifo { sender: MemberId, msg: M },
}

impl<M> HeldSend<M> {
    fn sender(&self) -> MemberId {
        match self {
            HeldSend::Total { sender, .. } | HeldSend::Fifo { sender, .. } => *sender,
        }
    }
}

struct GroupState<M> {
    members: HashMap<MemberId, MemberSlot<M>>,
    next_member: u64,
    next_seq: u64,
    view_id: u64,
    /// Installed fault plan (None = faithful network).
    faults: Option<FaultState>,
    /// Multicasts from isolated senders awaiting sequencing at heal.
    pending_sends: Vec<HeldSend<M>>,
}

impl<M> GroupState<M> {
    fn live_view(&self, view_id: u64) -> View {
        let mut members: Vec<MemberId> =
            self.members.iter().filter(|(_, s)| s.alive).map(|(&id, _)| id).collect();
        members.sort();
        View { id: view_id, members }
    }

    /// Sorted ids of live members (stable iteration for fault journaling).
    fn live_ids(&self) -> Vec<MemberId> {
        let mut ids: Vec<MemberId> =
            self.members.iter().filter(|(_, s)| s.alive).map(|(&id, _)| id).collect();
        ids.sort_unstable();
        ids
    }

    /// Enqueue a delivery to every live member with the given model-ms
    /// latency; returns how many copies were enqueued (or held for
    /// partition-isolated members). Must be called under the state lock.
    ///
    /// The in-flight gauge is bumped *before* each send: the receiver
    /// decrements on receipt, and a decrement racing ahead of its own
    /// increment would saturate at zero and leave the gauge permanently
    /// drifted upward.
    ///
    /// When a fault plan is installed, each payload copy may be dropped
    /// (first attempt lost → arrives after the retransmission delay),
    /// duplicated (total-order only — the receive path dedups by seq), or
    /// extra-delayed; every decision is a pure function of the plan seed,
    /// the global message index and the member, so the schedule replays
    /// identically for the same seed.
    /// Enqueue one delivery to every live member. `msg` is the fault-plan
    /// message index claimed by the caller via [`GroupState::tick_faults`]
    /// **before** it assigned the delivery's sequence number (`None` for
    /// control traffic, which is fault-exempt). The tick must precede
    /// sequence assignment: a tick can heal a partition and re-sequence
    /// held sends, and if the caller's seq were already taken those would
    /// enqueue *ahead* of it with *higher* seqs — every member's duplicate
    /// suppression would then swallow the caller's message, losing a
    /// uniform delivery group-wide.
    fn broadcast(
        &mut self,
        delivery: Delivery<M>,
        delay_ms: f64,
        cfg: &GroupConfig,
        in_flight: &Gauge,
        msg: Option<u64>,
    ) -> u64
    where
        M: Clone,
    {
        let now = Instant::now();
        let visible = now + cfg.scale.wall(delay_ms);
        let is_total = matches!(delivery, Delivery::TotalOrder { .. });
        let is_payload = is_total || matches!(delivery, Delivery::Fifo { .. });
        let mut enqueued = 0;
        let mut suspects: Vec<MemberId> = Vec::new();
        for id in self.live_ids() {
            let mut copies = 1u32;
            let mut extra_ms = 0.0f64;
            let mut held = false;
            if let Some(f) = self.faults.as_mut() {
                held = f.is_isolated(id.raw());
                // View changes are sequencer-originated control traffic:
                // partitions hold them, but drop/duplicate/delay apply to
                // payload multicasts only (duplicates additionally only to
                // total-order, where seq-dedup is defined).
                if let (true, Some(m)) = (is_payload, msg) {
                    let d = f.decide(m, id.raw());
                    if d.extra_delay_ms > 0.0 {
                        extra_ms += d.extra_delay_ms;
                        f.note(FaultKind::ExtraDelay, m, id.raw());
                    }
                    if d.drop {
                        extra_ms += f.cfg.retransmit_delay_ms;
                        f.note(FaultKind::Drop, m, id.raw());
                    }
                    if d.duplicate && is_total {
                        copies = 2;
                        f.note(FaultKind::Duplicate, m, id.raw());
                    }
                }
            }
            let slot = self.members.get_mut(&id).expect("live member listed");
            let at = (visible + cfg.scale.wall(extra_ms)).max(slot.horizon);
            slot.horizon = at;
            for _ in 0..copies {
                in_flight.add(1);
                if held {
                    slot.held.push(Timed { visible_at: at, delivery: delivery.clone() });
                    enqueued += 1;
                } else if slot.tx.send(Timed { visible_at: at, delivery: delivery.clone() }).is_ok()
                {
                    enqueued += 1;
                } else {
                    // The member's endpoint is gone but it was never
                    // declared crashed. Silently dropping the copy would
                    // lose a uniform delivery to a member the group still
                    // believes is alive — instead mark it suspect and
                    // announce a view change below so every survivor
                    // agrees it is gone.
                    in_flight.sub(1);
                    suspects.push(id);
                    break;
                }
            }
        }
        if !suspects.is_empty() {
            self.evict(&suspects, cfg, in_flight);
        }
        enqueued
    }

    /// Declare `ids` crashed and announce a single view change covering
    /// them all. Shared by the explicit crash API, the suspect path in
    /// [`GroupState::broadcast`], and heal-time send failures.
    fn evict(&mut self, ids: &[MemberId], cfg: &GroupConfig, in_flight: &Gauge)
    where
        M: Clone,
    {
        let mut changed = false;
        for &id in ids {
            let Some(slot) = self.members.get_mut(&id) else { continue };
            if !slot.alive {
                continue;
            }
            slot.alive = false;
            // Copies held for a partitioned member die with it.
            let held = std::mem::take(&mut slot.held);
            in_flight.sub(held.len() as u64);
            changed = true;
            if let Some(f) = self.faults.as_mut() {
                f.forget_member(id.raw());
            }
            // Unsequenced multicasts from the dead member are discarded:
            // the sender crashed before its message reached the sequencer,
            // so "not at all" is the uniform-delivery-compliant outcome.
            self.pending_sends.retain(|p| p.sender() != id);
        }
        if changed {
            self.view_id += 1;
            let view = self.live_view(self.view_id);
            let _ = self.broadcast(
                Delivery::ViewChange(view),
                cfg.detection_delay_ms,
                cfg,
                in_flight,
                None,
            );
        }
    }

    /// Advance the fault plan by one message: heal a due planned partition,
    /// claim the message index, and possibly start a new planned partition.
    fn tick_faults(&mut self, cfg: &GroupConfig, in_flight: &Gauge) -> u64
    where
        M: Clone,
    {
        if self.faults.as_ref().is_some_and(FaultState::plan_heal_due) {
            self.heal_locked(cfg, in_flight);
        }
        let live: Vec<u64> = self.live_ids().iter().map(|id| id.raw()).collect();
        let f = self.faults.as_mut().expect("tick_faults requires an installed plan");
        let m = f.next_msg();
        if let Some(isolated) = f.plan_partition(m, &live) {
            f.begin_partition(m, isolated, false);
        }
        m
    }

    /// Heal any active partition: flush held delivery copies in their
    /// original order, then sequence the multicasts the isolated members
    /// submitted while cut off. Must be called under the state lock.
    fn heal_locked(&mut self, cfg: &GroupConfig, in_flight: &Gauge)
    where
        M: Clone,
    {
        let iso: Vec<u64> = match self.faults.as_mut() {
            // Clear the isolation set up front so the recursive broadcasts
            // below deliver directly instead of re-holding.
            Some(f) if !f.isolated.is_empty() => {
                std::mem::take(&mut f.isolated).into_iter().collect()
            }
            _ => return,
        };
        let mut flushed = 0u64;
        let mut suspects: Vec<MemberId> = Vec::new();
        for raw in iso {
            let id = MemberId::new(raw);
            let Some(slot) = self.members.get_mut(&id) else { continue };
            let held = std::mem::take(&mut slot.held);
            if !slot.alive {
                in_flight.sub(held.len() as u64);
                continue;
            }
            for t in held {
                if slot.tx.send(t).is_ok() {
                    flushed += 1;
                } else {
                    in_flight.sub(1);
                    if !suspects.contains(&id) {
                        suspects.push(id);
                    }
                }
            }
        }
        self.faults.as_mut().expect("partition implies plan").end_partition(flushed);
        // Sequence the held sends in submission order; each goes through
        // the normal broadcast path (and is itself fault-eligible).
        let pending = std::mem::take(&mut self.pending_sends);
        for p in pending {
            // Each re-sequenced send is a fresh multicast: tick first (the
            // tick may recursively heal a partition planned mid-loop; by
            // then `pending_sends` is already drained, so the recursion
            // only flushes held copies), then take the seq.
            let m = self.tick_faults(cfg, in_flight);
            match p {
                HeldSend::Total { sender, msg } => {
                    let seq = self.next_seq;
                    self.next_seq += 1;
                    let _ = self.broadcast(
                        Delivery::TotalOrder { seq, sender, sequenced_at: Instant::now(), msg },
                        cfg.total_order_delay_ms,
                        cfg,
                        in_flight,
                        Some(m),
                    );
                }
                HeldSend::Fifo { sender, msg } => {
                    let _ = self.broadcast(
                        Delivery::Fifo { sender, msg },
                        cfg.fifo_delay_ms,
                        cfg,
                        in_flight,
                        Some(m),
                    );
                }
            }
        }
        if !suspects.is_empty() {
            self.evict(&suspects, cfg, in_flight);
        }
    }

    /// Heal until no partition remains. The re-broadcasts inside one
    /// `heal_locked` pass tick the fault plan and may *start* a fresh
    /// planned partition; with no follow-up traffic (a drained scripted
    /// run) nothing would ever heal it, so loop. Terminates because
    /// `pending_sends` can only refill while the lock is released.
    fn heal_fully(&mut self, cfg: &GroupConfig, in_flight: &Gauge)
    where
        M: Clone,
    {
        while self.faults.as_ref().is_some_and(|f| !f.isolated.is_empty()) {
            self.heal_locked(cfg, in_flight);
        }
    }
}

struct GroupInner<M> {
    state: Mutex<GroupState<M>>,
    config: GroupConfig,
    /// Delivery copies enqueued but not yet received by their member —
    /// the "GCS in-flight" gauge surfaced through `NodeStatus`.
    in_flight: Gauge,
}

/// Crash a member: shared implementation behind [`SimGroup::crash`] and
/// [`SimHandle::crash_self`].
fn crash_member<M: Clone + Send + 'static>(inner: &GroupInner<M>, id: MemberId) {
    let mut st = inner.state.lock();
    if !st.members.get(&id).is_some_and(|s| s.alive) {
        return;
    }
    st.evict(&[id], &inner.config, &inner.in_flight);
}

/// A simulated process group. Cloning shares the group.
pub struct SimGroup<M> {
    inner: Arc<GroupInner<M>>,
}

impl<M> Clone for SimGroup<M> {
    fn clone(&self) -> Self {
        SimGroup { inner: Arc::clone(&self.inner) }
    }
}

impl<M: Clone + Send + 'static> SimGroup<M> {
    pub fn new(config: GroupConfig) -> SimGroup<M> {
        SimGroup {
            inner: Arc::new(GroupInner {
                state: Mutex::new(GroupState {
                    members: HashMap::new(),
                    next_member: 0,
                    next_seq: 0,
                    view_id: 0,
                    faults: None,
                    pending_sends: Vec::new(),
                }),
                config,
                in_flight: Gauge::new(),
            }),
        }
    }

    /// Join the group: returns the new member's endpoint. All members
    /// (including the new one) receive the new view.
    pub fn join(&self) -> SimMember<M> {
        let (tx, rx) = mpsc::channel();
        let mut st = self.inner.state.lock();
        let id = MemberId::new(st.next_member);
        st.next_member += 1;
        st.members
            .insert(id, MemberSlot { alive: true, tx, horizon: Instant::now(), held: Vec::new() });
        st.view_id += 1;
        let view = st.live_view(st.view_id);
        let _ = st.broadcast(
            Delivery::ViewChange(view),
            0.0,
            &self.inner.config,
            &self.inner.in_flight,
            None,
        );
        drop(st);
        SimMember { id, group: Arc::clone(&self.inner), rx, last_seq: AtomicU64::new(u64::MAX) }
    }

    /// Crash a member: it is removed from the group and every survivor
    /// receives a view change after the (simulated) failure-detection delay.
    /// Messages the member multicast before the crash are already in every
    /// queue, *ahead of* the view change.
    pub fn crash(&self, id: MemberId) {
        crash_member(&self.inner, id);
    }

    /// The current view (live members).
    pub fn view(&self) -> View {
        let st = self.inner.state.lock();
        st.live_view(st.view_id)
    }

    pub fn config(&self) -> &GroupConfig {
        &self.inner.config
    }

    /// Delivery copies enqueued but not yet received, with high-water mark.
    pub fn in_flight(&self) -> GaugeReading {
        self.inner.in_flight.read()
    }

    /// Install a seeded fault plan (replacing any previous plan along with
    /// its journal, log and fingerprint).
    pub fn install_faults(&self, cfg: FaultConfig) {
        self.install_faults_with_epoch(cfg, Instant::now());
    }

    /// Install a fault plan whose journal events are stamped against a
    /// shared `epoch`, so they merge onto the cluster-wide timeline.
    pub fn install_faults_with_epoch(&self, cfg: FaultConfig, epoch: Instant) {
        let journal = Journal::with_epoch(NETWORK_REPLICA, epoch, DEFAULT_JOURNAL_CAPACITY);
        self.inner.state.lock().faults = Some(FaultState::new(cfg, journal));
    }

    /// Explicitly partition the group: `members` stop receiving (deliveries
    /// are held) and their own multicasts wait unsequenced until [`heal`].
    /// Installs a quiet fault plan if none is present; an already-active
    /// partition is healed first.
    ///
    /// [`heal`]: SimGroup::heal
    pub fn partition(&self, members: &[MemberId]) {
        let mut st = self.inner.state.lock();
        if st.faults.is_none() {
            st.faults = Some(FaultState::new(FaultConfig::quiet(0), Journal::new(NETWORK_REPLICA)));
        }
        st.heal_fully(&self.inner.config, &self.inner.in_flight);
        let mut isolated: Vec<u64> = members
            .iter()
            .filter(|id| st.members.get(id).is_some_and(|s| s.alive))
            .map(|id| id.raw())
            .collect();
        isolated.sort_unstable();
        isolated.dedup();
        if isolated.is_empty() {
            return;
        }
        let f = st.faults.as_mut().expect("installed above");
        let msg = f.current_msg();
        f.begin_partition(msg, isolated, true);
    }

    /// Heal any active partition (planned or explicit): held deliveries
    /// flush in order, then the isolated members' multicasts are sequenced.
    pub fn heal(&self) {
        self.inner.state.lock().heal_fully(&self.inner.config, &self.inner.in_flight);
    }

    /// `(fnv1a_fingerprint, record_count)` of the fault schedule so far —
    /// `None` when no plan is installed. Equal pairs mean byte-identical
    /// schedules; the chaos harness compares them across seed replays.
    pub fn fault_fingerprint(&self) -> Option<(u64, u64)> {
        self.inner.state.lock().faults.as_ref().map(FaultState::fingerprint)
    }

    /// The retained fault schedule (bounded; the fingerprint keeps covering
    /// records past the retention cap).
    pub fn fault_log(&self) -> Vec<FaultRecord> {
        self.inner.state.lock().faults.as_ref().map(FaultState::log).unwrap_or_default()
    }

    /// `(faults_injected, partitioned)` gauge readings from the installed
    /// plan, if any.
    pub fn fault_gauges(&self) -> Option<(GaugeReading, GaugeReading)> {
        let st = self.inner.state.lock();
        st.faults.as_ref().map(|f| (f.injected.read(), f.partitioned.read()))
    }

    /// Snapshot of the network fault journal (events attributed to
    /// [`NETWORK_REPLICA`]).
    pub fn fault_journal(&self) -> Vec<Event> {
        let st = self.inner.state.lock();
        st.faults.as_ref().map(|f| f.journal().snapshot()).unwrap_or_default()
    }
}

/// A clonable multicast-only handle (e.g. for worker threads that send but
/// never receive).
pub struct SimHandle<M> {
    id: MemberId,
    group: Arc<GroupInner<M>>,
}

impl<M> Clone for SimHandle<M> {
    fn clone(&self) -> Self {
        SimHandle { id: self.id, group: Arc::clone(&self.group) }
    }
}

impl<M: Clone + Send + 'static> SimHandle<M> {
    pub fn id(&self) -> MemberId {
        self.id
    }

    /// Uniform reliable total-order multicast to the whole group (including
    /// the sender). Returns [`HELD_SEND_SEQ`] when the sender is inside an
    /// active partition: the message is sequenced when the partition heals.
    pub fn multicast_total(&self, msg: M) -> Result<u64, GcsError> {
        let cfg = &self.group.config;
        let mut st = self.group.state.lock();
        if !st.members.get(&self.id).is_some_and(|s| s.alive) {
            return Err(GcsError::MemberCrashed);
        }
        // Advance the fault plan *before* sequencing (see `broadcast`); the
        // tick may heal the very partition isolating this sender.
        let m = if st.faults.is_some() {
            Some(st.tick_faults(cfg, &self.group.in_flight))
        } else {
            None
        };
        if st.faults.as_ref().is_some_and(|f| f.is_isolated(self.id.raw())) {
            st.pending_sends.push(HeldSend::Total { sender: self.id, msg });
            return Ok(HELD_SEND_SEQ);
        }
        let seq = st.next_seq;
        st.next_seq += 1;
        let _ = st.broadcast(
            Delivery::TotalOrder { seq, sender: self.id, sequenced_at: Instant::now(), msg },
            cfg.total_order_delay_ms,
            cfg,
            &self.group.in_flight,
            m,
        );
        drop(st);
        Ok(seq)
    }

    /// FIFO multicast to the whole group (including the sender).
    pub fn multicast_fifo(&self, msg: M) -> Result<(), GcsError> {
        let cfg = &self.group.config;
        let mut st = self.group.state.lock();
        if !st.members.get(&self.id).is_some_and(|s| s.alive) {
            return Err(GcsError::MemberCrashed);
        }
        let m = if st.faults.is_some() {
            Some(st.tick_faults(cfg, &self.group.in_flight))
        } else {
            None
        };
        if st.faults.as_ref().is_some_and(|f| f.is_isolated(self.id.raw())) {
            st.pending_sends.push(HeldSend::Fifo { sender: self.id, msg });
            return Ok(());
        }
        let _ = st.broadcast(
            Delivery::Fifo { sender: self.id, msg },
            cfg.fifo_delay_ms,
            cfg,
            &self.group.in_flight,
            m,
        );
        drop(st);
        Ok(())
    }

    /// Crash-stop this member from inside the process that backs it —
    /// crash-point support. Identical to [`SimGroup::crash`] on the owning
    /// group: survivors get a view change after the detection delay.
    pub fn crash_self(&self) {
        crash_member(&self.group, self.id);
    }

    /// Delivery copies enqueued but not yet received, group-wide.
    pub fn in_flight(&self) -> GaugeReading {
        self.group.in_flight.read()
    }
}

/// A member endpoint: receives deliveries, can multicast.
pub struct SimMember<M> {
    id: MemberId,
    group: Arc<GroupInner<M>>,
    rx: Receiver<Timed<M>>,
    /// Highest total-order sequence number delivered to this endpoint, for
    /// duplicate suppression (`u64::MAX` = none yet). Sound because all
    /// enqueues happen under the group lock, so this channel sees strictly
    /// increasing seqs except for injected duplicate copies.
    last_seq: AtomicU64,
}

impl<M: Clone + Send + 'static> SimMember<M> {
    pub fn id(&self) -> MemberId {
        self.id
    }

    /// A clonable handle for multicasting from other threads.
    pub fn handle(&self) -> SimHandle<M> {
        SimHandle { id: self.id, group: Arc::clone(&self.group) }
    }

    pub fn multicast_total(&self, msg: M) -> Result<u64, GcsError> {
        self.handle().multicast_total(msg)
    }

    pub fn multicast_fifo(&self, msg: M) -> Result<(), GcsError> {
        self.handle().multicast_fifo(msg)
    }

    /// Account for, dedup, and latency-delay one raw delivery. `None`
    /// means the copy repeated an already-delivered total-order sequence
    /// number (an injected duplicate) and was consumed silently — the
    /// `(tid, incarnation)`-keyed outcome dedup in the replication core
    /// backs this up for any payload-level replay.
    fn admit(&self, t: Timed<M>) -> Option<Delivery<M>> {
        self.group.in_flight.sub(1);
        if let Delivery::TotalOrder { seq, .. } = &t.delivery {
            let last = self.last_seq.load(Ordering::Relaxed);
            if last != u64::MAX && *seq <= last {
                return None;
            }
            self.last_seq.store(*seq, Ordering::Relaxed);
        }
        wait_until(t.visible_at);
        Some(t.delivery)
    }

    /// Blocking receive; sleeps until the delivery's simulated arrival time.
    pub fn recv(&self) -> Result<Delivery<M>, GcsError> {
        loop {
            let t = self.rx.recv().map_err(|_| GcsError::Disconnected)?;
            if let Some(d) = self.admit(t) {
                return Ok(d);
            }
        }
    }

    /// Receive with a wall-clock timeout; the simulated latency is honoured,
    /// so the call may overrun the deadline by at most the remaining sim delay.
    pub fn recv_timeout(&self, timeout: std::time::Duration) -> Result<Delivery<M>, GcsError> {
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let t = self.rx.recv_timeout(left).map_err(|e| match e {
                RecvTimeoutError::Timeout => GcsError::Timeout,
                RecvTimeoutError::Disconnected => GcsError::Disconnected,
            })?;
            if let Some(d) = self.admit(t) {
                return Ok(d);
            }
        }
    }

    /// Non-blocking receive: returns a delivery only if one has already
    /// "arrived" (its simulated latency elapsed).
    pub fn try_recv(&self) -> Option<Delivery<M>> {
        loop {
            if let Some(d) = self.admit(self.rx.try_recv().ok()?) {
                return Some(d);
            }
        }
    }

    /// Delivery copies enqueued but not yet received, group-wide.
    pub fn in_flight(&self) -> GaugeReading {
        self.group.in_flight.read()
    }

    /// The current view as known by the group.
    pub fn view(&self) -> View {
        let st = self.group.state.lock();
        st.live_view(st.view_id)
    }
}

fn wait_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        precise_sleep(at - now);
    }
}

// ---------------------------------------------------------------------------
// Transport-trait impls: the sim backend behind `crate::traits`. Pure
// delegation to the inherent methods above — the sim semantics (synchronous
// sequencing, seeded faults, model-time latency) are unchanged.
// ---------------------------------------------------------------------------

impl<M: Clone + Send + 'static> crate::traits::Group<M> for SimGroup<M> {
    fn join(&self) -> Result<Box<dyn crate::traits::Member<M>>, GcsError> {
        Ok(Box::new(SimGroup::join(self)))
    }

    fn crash(&self, id: MemberId) {
        SimGroup::crash(self, id);
    }

    fn view(&self) -> View {
        SimGroup::view(self)
    }

    fn in_flight(&self) -> GaugeReading {
        SimGroup::in_flight(self)
    }

    fn install_faults_with_epoch(&self, cfg: FaultConfig, epoch: Instant) {
        SimGroup::install_faults_with_epoch(self, cfg, epoch);
    }

    fn partition(&self, members: &[MemberId]) {
        SimGroup::partition(self, members);
    }

    fn heal(&self) {
        SimGroup::heal(self);
    }

    fn fault_fingerprint(&self) -> Option<(u64, u64)> {
        SimGroup::fault_fingerprint(self)
    }

    fn fault_log(&self) -> Vec<FaultRecord> {
        SimGroup::fault_log(self)
    }

    fn fault_gauges(&self) -> Option<(GaugeReading, GaugeReading)> {
        SimGroup::fault_gauges(self)
    }

    fn fault_journal(&self) -> Vec<Event> {
        SimGroup::fault_journal(self)
    }
}

impl<M: Clone + Send + 'static> crate::traits::Member<M> for SimMember<M> {
    fn id(&self) -> MemberId {
        SimMember::id(self)
    }

    fn handle(&self) -> Box<dyn crate::traits::Cast<M>> {
        Box::new(SimMember::handle(self))
    }

    fn recv(&self) -> Result<Delivery<M>, GcsError> {
        SimMember::recv(self)
    }

    fn recv_timeout(&self, timeout: std::time::Duration) -> Result<Delivery<M>, GcsError> {
        SimMember::recv_timeout(self, timeout)
    }

    fn try_recv(&self) -> Option<Delivery<M>> {
        SimMember::try_recv(self)
    }

    fn view(&self) -> View {
        SimMember::view(self)
    }

    fn in_flight(&self) -> GaugeReading {
        SimMember::in_flight(self)
    }

    fn leave(&self) {
        // The sim group has no distinct graceful-leave protocol: survivors
        // observe the same view change either way.
        SimMember::handle(self).crash_self();
    }
}

impl<M: Clone + Send + 'static> crate::traits::Cast<M> for SimHandle<M> {
    fn id(&self) -> MemberId {
        SimHandle::id(self)
    }

    fn multicast_total(&self, msg: M) -> Result<u64, GcsError> {
        SimHandle::multicast_total(self, msg)
    }

    fn multicast_fifo(&self, msg: M) -> Result<(), GcsError> {
        SimHandle::multicast_fifo(self, msg)
    }

    fn crash_self(&self) {
        SimHandle::crash_self(self);
    }

    fn in_flight(&self) -> GaugeReading {
        SimHandle::in_flight(self)
    }

    fn clone_cast(&self) -> Box<dyn crate::traits::Cast<M>> {
        Box::new(self.clone())
    }
}
