//! The simulated group: the [`SeqLog`] core plus simulated latency and the
//! seeded fault plan, all in one process. This is the deterministic/chaos
//! backend behind the [`crate::traits`] transport abstraction
//! ([`crate::TcpGroup`] is the real network); SRCA-Rep itself only sees the
//! traits, and the delivery contract both backends provide is stated once,
//! in `seqlog.rs`.
//!
//! A multicast is one append under the group lock; a member is a cursor,
//! and [`Member::recv`] waits on one condvar until the cursor is behind
//! the log. Network latency is simulated at the *receiver*: each entry
//! carries the wall-clock instant at which it becomes visible, and the
//! receiver sleeps until then with the lock released. Latency is a
//! [`TimeScale`]-scaled model duration, so the paper's "3 ms per uniform
//! reliable multicast in a LAN" (§5.2) is one config knob.
//!
//! A seeded [`FaultConfig`] plan (see [`crate::fault`]) can additionally
//! drop (→ retransmit), delay, and partition deliveries without violating
//! the contract: drops and delays become per-copy latency stored on the
//! entry, and a partition *bounds* the isolated members'
//! cursors at the log index where it began (and holds their multicasts
//! unsequenced) until it heals, preserving the single total order.

use crate::fault::{FaultConfig, FaultRecord, FaultState, NETWORK_REPLICA};
use crate::seqlog::SeqLog;
use crate::traits::{Cast, Delivery, GcsError, Group, Member, View, HELD_SEND_SEQ};
use parking_lot::{Condvar, Mutex};
use sirep_common::journal::FaultKind;
use sirep_common::{
    precise_sleep, Event, GaugeReading, JournalWriter, MemberId, TimeScale,
    DEFAULT_JOURNAL_CAPACITY,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// One log entry: a delivery and when it reaches whom.
pub(crate) struct Timed<M> {
    /// When the entry becomes visible to a member whose copy the fault plan
    /// left alone.
    visible_at: Instant,
    /// Per-copy extra latency decided at sequencing time (a dropped first
    /// attempt's retransmission, an injected delay); most members have none.
    late: Vec<(MemberId, Duration)>,
    pub(crate) delivery: Delivery<M>,
}

impl<M> Timed<M> {
    pub(crate) fn arrival(&self, member: MemberId) -> Instant {
        let late = self.late.iter().find(|(m, _)| *m == member).map_or(Duration::ZERO, |l| l.1);
        self.visible_at + late
    }
}

type Log<M> = SeqLog<Timed<M>, ()>;

/// Renders the view entry [`SeqLog::admit`]/[`SeqLog::evict`] append.
fn view_entry<M>(visible_at: Instant) -> impl FnOnce(&Log<M>) -> Timed<M> {
    move |log| Timed { visible_at, late: Vec::new(), delivery: Delivery::ViewChange(view_of(log)) }
}

fn view_of<M>(log: &Log<M>) -> View {
    View { id: log.view_id(), members: log.members().map(|(id, ())| MemberId::new(id)).collect() }
}

#[derive(Clone, Copy)]
enum Order {
    Total,
    Fifo,
}

pub(crate) struct GroupState<M> {
    pub(crate) log: Log<M>,
    /// High-water of [`GroupState::backlog`], taken at every append.
    in_flight_hw: u64,
    /// Installed fault plan (None = faithful network).
    faults: Option<FaultState>,
    /// Log index at which the active partition began: the isolated members'
    /// cursors stop here until it heals.
    partition_at: u64,
    /// Multicasts submitted by isolated senders: they have not reached the
    /// sequencer yet and are sequenced, in submission order, at heal.
    pending_sends: Vec<(Order, MemberId, M)>,
}

impl<M> GroupState<M> {
    /// Entries appended but not yet consumed, summed over the members —
    /// the "GCS in-flight" gauge surfaced through `NodeStatus`.
    fn backlog(&self) -> u64 {
        self.log.backlog().map(|(_, behind)| behind).sum()
    }

    fn note_append(&mut self) {
        self.in_flight_hw = self.in_flight_hw.max(self.backlog());
    }

    fn isolated(&self, id: MemberId) -> bool {
        self.faults.as_ref().is_some_and(|f| f.isolated.contains(&id.raw()))
    }

    /// The log index `id`'s cursor may not pass right now.
    fn bound(&self, id: MemberId) -> u64 {
        if self.isolated(id) {
            self.partition_at
        } else {
            self.log.end()
        }
    }

    fn admit(&mut self, replica: u64) -> Result<MemberId, GcsError> {
        // No state transfer through the group: a joiner starts at its own
        // view and the cluster layer brings it up to date.
        let id = self.log.admit(replica, (), self.log.end(), view_entry(Instant::now()));
        self.note_append();
        id.map(MemberId::new).ok_or_else(|| GcsError::Io("replica id exceeds 32 bits".into()))
    }

    /// Declare `id` crashed: survivors get the view change after the
    /// (simulated) failure-detection delay, behind everything the member
    /// had sequenced.
    fn evict(&mut self, id: MemberId, cfg: &GroupConfig) {
        let seen = Instant::now() + cfg.scale.wall(cfg.detection_delay_ms);
        if self.log.evict(&[id.raw()], view_entry(seen)).is_empty() {
            return;
        }
        if let Some(f) = self.faults.as_mut() {
            f.forget_member(id.raw());
        }
        // Unsequenced multicasts from the dead member are discarded: it
        // crashed before they reached the sequencer — "not at all".
        self.pending_sends.retain(|(_, sender, _)| *sender != id);
        self.note_append();
    }

    /// One multicast as the sequencer sees it arrive. The fault plan is
    /// advanced *before* the sequence number is taken: a tick can heal a
    /// partition and sequence held sends, which must come first.
    fn multicast(
        &mut self,
        order: Order,
        sender: MemberId,
        msg: M,
        cfg: &GroupConfig,
    ) -> Result<u64, GcsError> {
        if !self.log.contains(sender.raw()) {
            return Err(GcsError::MemberCrashed);
        }
        let m = self.faults.is_some().then(|| self.tick_faults(cfg));
        if self.isolated(sender) {
            self.pending_sends.push((order, sender, msg));
            return Ok(HELD_SEND_SEQ);
        }
        Ok(self.sequence(order, sender, msg, m, cfg))
    }

    /// Append `sender`'s multicast. `m` is its fault-plan message index
    /// (`None` without a plan): each member's copy may be dropped (first
    /// attempt lost → arrives after the retransmission delay) or
    /// extra-delayed. Every decision is a pure function of the plan seed,
    /// `m` and the member, made and `note`d here in member order, so the
    /// schedule replays identically.
    fn sequence(
        &mut self,
        order: Order,
        sender: MemberId,
        msg: M,
        m: Option<u64>,
        cfg: &GroupConfig,
    ) -> u64 {
        let now = Instant::now();
        let delay_ms = match order {
            Order::Total => cfg.total_order_delay_ms,
            Order::Fifo => cfg.fifo_delay_ms,
        };
        let mut late = Vec::new();
        if let (Some(f), Some(m)) = (self.faults.as_mut(), m) {
            for (id, ()) in self.log.members() {
                let d = f.decide(m, id);
                let mut extra_ms = d.extra_delay_ms;
                if extra_ms > 0.0 {
                    f.note(FaultKind::ExtraDelay, m, id);
                }
                if d.drop {
                    extra_ms += f.cfg.retransmit_delay_ms;
                    f.note(FaultKind::Drop, m, id);
                }
                if extra_ms > 0.0 {
                    late.push((MemberId::new(id), cfg.scale.wall(extra_ms)));
                }
            }
        }
        let entry = |delivery| Timed { visible_at: now + cfg.scale.wall(delay_ms), late, delivery };
        let seq = match order {
            Order::Total => self.log.total(sender.raw(), |seq| {
                entry(Delivery::TotalOrder { seq, sender, sequenced_at: now, msg })
            }),
            Order::Fifo => {
                self.log.fifo(sender.raw(), entry(Delivery::Fifo { sender, msg })).then_some(0)
            }
        };
        self.note_append();
        seq.expect("callers sequence for members only, under the lock that evicts them")
    }

    fn begin_partition(&mut self, msg: u64, isolated: Vec<u64>, explicit: bool) {
        self.partition_at = self.log.end();
        let f = self.faults.as_mut().expect("partitions need an installed plan");
        f.begin_partition(msg, isolated, explicit);
    }

    /// Advance the fault plan by one message: heal a due planned partition,
    /// claim the message index, and possibly start a new planned partition.
    fn tick_faults(&mut self, cfg: &GroupConfig) -> u64 {
        if self.faults.as_ref().is_some_and(FaultState::plan_heal_due) {
            self.heal_once(cfg);
        }
        let live: Vec<u64> = self.log.members().map(|(id, ())| id).collect();
        let f = self.faults.as_mut().expect("tick_faults requires an installed plan");
        let m = f.next_msg();
        if let Some(isolated) = f.plan_partition(m, &live) {
            self.begin_partition(m, isolated, false);
        }
        m
    }

    /// Heal the active partition: unbound the isolated cursors, then
    /// sequence the multicasts their members submitted while cut off.
    fn heal_once(&mut self, cfg: &GroupConfig) {
        let Some(f) = self.faults.as_mut().filter(|f| !f.isolated.is_empty()) else { return };
        // What heal releases is what was appended since the partition
        // began, once per isolated member — an index difference, so the
        // fault fingerprint does not depend on how far any receiver got.
        let released = (self.log.end() - self.partition_at) * f.isolated.len() as u64;
        f.end_partition(released);
        for (order, sender, msg) in std::mem::take(&mut self.pending_sends) {
            // Each is a fresh multicast: tick first (which may start — or
            // heal — a partition planned mid-loop), then take the seq.
            let m = self.tick_faults(cfg);
            self.sequence(order, sender, msg, Some(m), cfg);
        }
    }

    /// Heal until no partition remains: sequencing the held sends ticks
    /// the plan and may *start* a fresh planned partition, which with no
    /// follow-up traffic (a drained scripted run) nothing would ever heal.
    /// Terminates because `pending_sends` only refills with the lock
    /// released.
    fn heal(&mut self, cfg: &GroupConfig) {
        while self.faults.as_ref().is_some_and(|f| !f.isolated.is_empty()) {
            self.heal_once(cfg);
        }
    }
}

pub(crate) struct GroupInner<M> {
    pub(crate) state: Mutex<GroupState<M>>,
    /// Signalled after every append and every heal; receivers wait on it
    /// (under `state`) for their cursor to fall behind their bound.
    appended: Condvar,
    /// The replica id [`SimGroup::join`] hands out next.
    next_replica: AtomicU64,
    config: GroupConfig,
}

impl<M> GroupInner<M> {
    fn evict(&self, id: MemberId) {
        self.state.lock().evict(id, &self.config);
        self.appended.notify_all();
    }

    fn view(&self) -> View {
        view_of(&self.state.lock().log)
    }

    fn in_flight(&self) -> GaugeReading {
        let st = self.state.lock();
        GaugeReading { current: st.backlog(), high_water: st.in_flight_hw }
    }
}

/// A simulated process group. Cloning shares the group.
pub struct SimGroup<M> {
    pub(crate) inner: Arc<GroupInner<M>>,
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
                    log: SeqLog::default(),
                    in_flight_hw: 0,
                    faults: None,
                    partition_at: 0,
                    pending_sends: Vec::new(),
                }),
                appended: Condvar::new(),
                next_replica: AtomicU64::new(0),
                config,
            }),
        }
    }

    /// [`Group::join`] with the concrete endpoint type.
    pub fn join(&self) -> SimMember<M> {
        let fresh = self.inner.next_replica.fetch_add(1, Ordering::Relaxed);
        self.join_as(fresh).expect("fresh replica ids count up from 0")
    }

    /// [`Group::join_as`] with the concrete endpoint type.
    pub fn join_as(&self, replica: u64) -> Result<SimMember<M>, GcsError> {
        let id = self.inner.state.lock().admit(replica)?;
        self.inner.appended.notify_all();
        Ok(SimMember { id, group: Arc::clone(&self.inner) })
    }

    pub fn config(&self) -> &GroupConfig {
        &self.inner.config
    }

    /// Install a seeded fault plan (replacing any previous plan along with
    /// its journal, log and fingerprint).
    pub fn install_faults(&self, cfg: FaultConfig) {
        self.install_faults_with_epoch(cfg, Instant::now());
    }
}

impl<M: Clone + Send + 'static> Group<M> for SimGroup<M> {
    fn join_as(&self, replica: u64) -> Result<Box<dyn Member<M>>, GcsError> {
        Ok(Box::new(SimGroup::join_as(self, replica)?))
    }

    fn join(&self) -> Result<Box<dyn Member<M>>, GcsError> {
        Ok(Box::new(SimGroup::join(self)))
    }

    fn crash(&self, id: MemberId) {
        self.inner.evict(id);
    }

    fn view(&self) -> View {
        self.inner.view()
    }

    fn in_flight(&self) -> GaugeReading {
        self.inner.in_flight()
    }

    fn install_faults_with_epoch(&self, cfg: FaultConfig, epoch: Instant) {
        let journal = JournalWriter::with_epoch(NETWORK_REPLICA, epoch, DEFAULT_JOURNAL_CAPACITY);
        self.inner.state.lock().faults = Some(FaultState::new(cfg, journal));
    }

    /// `members` stop receiving (their cursors are bounded where the log
    /// ends now) and their own multicasts wait unsequenced until
    /// [`Group::heal`]. Installs a quiet fault plan if none is present; an
    /// already-active partition is healed first.
    fn partition(&self, members: &[MemberId]) {
        let mut st = self.inner.state.lock();
        st.faults.get_or_insert_with(|| {
            FaultState::new(FaultConfig::quiet(0), JournalWriter::new(NETWORK_REPLICA))
        });
        st.heal(&self.inner.config);
        let mut isolated: Vec<u64> =
            members.iter().map(|id| id.raw()).filter(|&id| st.log.contains(id)).collect();
        isolated.sort_unstable();
        isolated.dedup();
        if !isolated.is_empty() {
            let msg = st.faults.as_ref().map_or(0, FaultState::current_msg);
            st.begin_partition(msg, isolated, true);
        }
        drop(st);
        self.inner.appended.notify_all();
    }

    /// Heal any active partition (planned or explicit): the isolated
    /// members read on from where they stopped, then their held
    /// multicasts are sequenced.
    fn heal(&self) {
        self.inner.state.lock().heal(&self.inner.config);
        self.inner.appended.notify_all();
    }

    fn fault_fingerprint(&self) -> Option<(u64, u64)> {
        self.inner.state.lock().faults.as_ref().map(FaultState::fingerprint)
    }

    fn fault_log(&self) -> Vec<FaultRecord> {
        self.inner.state.lock().faults.as_ref().map(FaultState::log).unwrap_or_default()
    }

    fn fault_gauges(&self) -> Option<(GaugeReading, GaugeReading)> {
        let st = self.inner.state.lock();
        st.faults.as_ref().map(|f| (f.injected, f.partitioned))
    }

    fn fault_journal(&self) -> Vec<Event> {
        let st = self.inner.state.lock();
        st.faults.as_ref().map(|f| f.journal().snapshot()).unwrap_or_default()
    }
}

/// A multicast-only handle (e.g. for worker threads that send but never
/// receive).
pub struct SimHandle<M> {
    id: MemberId,
    group: Arc<GroupInner<M>>,
}

impl<M> SimHandle<M> {
    fn multicast(&self, order: Order, msg: M) -> Result<u64, GcsError> {
        let seq = self.group.state.lock().multicast(order, self.id, msg, &self.group.config);
        self.group.appended.notify_all();
        seq
    }
}

impl<M: Clone + Send + 'static> Cast<M> for SimHandle<M> {
    fn id(&self) -> MemberId {
        self.id
    }

    /// Sequenced before this returns, except for a sender inside an active
    /// partition: that gets [`HELD_SEND_SEQ`] and is sequenced at heal.
    fn multicast_total(&self, msg: M) -> Result<u64, GcsError> {
        self.multicast(Order::Total, msg)
    }

    fn multicast_fifo(&self, msg: M) -> Result<(), GcsError> {
        self.multicast(Order::Fifo, msg).map(drop)
    }

    fn crash_self(&self) {
        self.group.evict(self.id);
    }

    fn in_flight(&self) -> GaugeReading {
        self.group.in_flight()
    }
}

/// A member endpoint: a cursor into the group's log. Dropping it leaves
/// the group (survivors get the view change), as a closed socket would.
pub struct SimMember<M> {
    id: MemberId,
    group: Arc<GroupInner<M>>,
}

impl<M> Drop for SimMember<M> {
    fn drop(&mut self) {
        self.group.evict(self.id);
    }
}

impl<M: Clone> SimMember<M> {
    /// [`Member::handle`] with the concrete handle type.
    pub fn handle(&self) -> SimHandle<M> {
        SimHandle { id: self.id, group: Arc::clone(&self.group) }
    }

    /// Take the entry at this member's cursor if it arrives by `deadline`
    /// (`None` = wait for ever): wait until the cursor is behind its bound,
    /// advance it, and sleep out the entry's remaining latency with the
    /// lock released. An entry that arrives after `deadline` stays put.
    fn take(&self, deadline: Option<Instant>) -> Result<Delivery<M>, GcsError> {
        let id = self.id.raw();
        let mut st = self.group.state.lock();
        loop {
            let Some((next, mut entries)) = st.log.pending(id) else {
                return Err(GcsError::Disconnected);
            };
            if next < st.bound(self.id) {
                let entry = entries.next().expect("a cursor below its bound is below the end");
                let at = entry.arrival(self.id);
                if deadline.is_some_and(|d| at > d) {
                    break;
                }
                let delivery = entry.delivery.clone();
                st.log.advance(id, 1);
                st.log.trim();
                drop(st);
                wait_until(at);
                return Ok(delivery);
            }
            match deadline.map(|d| d.saturating_duration_since(Instant::now())) {
                None => self.group.appended.wait(&mut st),
                Some(left) if left.is_zero() => return Err(GcsError::Timeout),
                Some(left) => {
                    let _ = self.group.appended.wait_for(&mut st, left);
                }
            }
        }
        drop(st);
        if let Some(deadline) = deadline {
            wait_until(deadline);
        }
        Err(GcsError::Timeout)
    }
}

impl<M: Clone + Send + 'static> Member<M> for SimMember<M> {
    fn id(&self) -> MemberId {
        self.id
    }

    fn handle(&self) -> Box<dyn Cast<M>> {
        Box::new(SimMember::handle(self))
    }

    fn recv(&self) -> Result<Delivery<M>, GcsError> {
        self.take(None)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Delivery<M>, GcsError> {
        self.take(Some(Instant::now() + timeout))
    }

    fn try_recv(&self) -> Option<Delivery<M>> {
        self.take(Some(Instant::now())).ok()
    }

    fn view(&self) -> View {
        self.group.view()
    }

    fn in_flight(&self) -> GaugeReading {
        self.group.in_flight()
    }

    /// The sim group has no distinct graceful-leave protocol: survivors
    /// observe the same view change either way.
    fn leave(&self) {
        self.group.evict(self.id);
    }
}

/// Return at `at`, never before: `precise_sleep` is only mean-accurate (it
/// may end early, which suits service times), so yield out the rest.
pub(crate) fn wait_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        precise_sleep(at - now);
    }
    while Instant::now() < at {
        std::thread::yield_now();
    }
}
