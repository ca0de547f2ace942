//! The transport abstraction: what SRCA-Rep requires of a group
//! communication system, as traits.
//!
//! The replication core is written against [`Group`] / [`Member`] /
//! [`Cast`] trait objects, so backends can be swapped underneath the
//! protocol (the replica-interface layering of Wiesmann & Schiper's
//! replication frameworks). Two backends exist:
//!
//! - [`SimGroup`](crate::SimGroup) — the in-process simulated network:
//!   deterministic, seeded fault injection, model-time latency. This is the
//!   tier every chaos/correctness test runs on.
//! - [`TcpGroup`](crate::TcpGroup) — real processes over real sockets with
//!   a sequencer service providing the same delivery contract
//!   (length-prefixed frames, no shared memory).
//!
//! The **contract** every backend provides — total order, uniform reliable
//! delivery ("before the crash view, or not at all", which §5.4's in-doubt
//! resolution depends on) and view synchrony — is stated once, in
//! `seqlog.rs`, as properties of the one sequencer core both backends are
//! shells over; `conformance_tests.rs` checks it on both.
//!
//! What is *not* part of the contract: the sequence number returned by
//! [`Cast::multicast_total`]. The sim backend sequences synchronously and
//! returns the real number; a networked backend is fire-and-forget and
//! returns [`HELD_SEND_SEQ`] — callers learn the order from delivery, which
//! is the only place the protocol may depend on it.

use crate::fault::{FaultConfig, FaultRecord};
use sirep_common::{Event, GaugeReading, MemberId, TransportSnapshot};
use std::fmt;
use std::time::{Duration, Instant};

/// Sequence number returned by `multicast_total` when the message has not
/// been sequenced at return time: the sim backend returns it for senders
/// inside an active partition (the message is sequenced at heal), and the
/// TCP backend returns it for every send (sequencing happens at the
/// sequencer, asynchronously). The authoritative sequence number is the one
/// carried by the delivery.
pub const HELD_SEND_SEQ: u64 = u64::MAX;

/// A membership view. Self-describing: each [`MemberId`] is the
/// `(replica, incarnation)` the sequencer core minted at that member's join
/// (see `seqlog.rs`), so which incarnation of which replica a view adds or
/// drops is read off two successive views and nothing else.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct View {
    pub id: u64,
    pub members: Vec<MemberId>,
}

impl View {
    pub fn contains(&self, m: MemberId) -> bool {
        self.members.contains(&m)
    }
}

/// One message inside a [`Delivery::TotalBatch`].
#[derive(Debug, Clone)]
pub struct BatchEntry<M> {
    pub seq: u64,
    pub sender: MemberId,
    pub msg: M,
}

/// What a member receives.
#[derive(Debug, Clone)]
pub enum Delivery<M> {
    /// Uniform reliable total-order multicast: same position in every
    /// member's stream. `seq` is the global sequence number;
    /// `sequenced_at` is the local wall-clock instant the message was
    /// sequenced (sim) or read off the wire (TCP), so receivers can
    /// attribute multicast latency without a cross-process clock.
    TotalOrder { seq: u64, sender: MemberId, sequenced_at: Instant, msg: M },
    /// No backend constructs this; declared only because `benchmark/` names it.
    TotalBatch { sequenced_at: Instant, entries: Vec<BatchEntry<M>> },
    /// FIFO multicast: per-sender order only (still globally consistent in
    /// both backends, as in Spread's agreed-order service levels).
    Fifo { sender: MemberId, msg: M },
    /// A membership change (crash or join).
    ViewChange(View),
}

/// Errors surfaced by group operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GcsError {
    /// The member was removed from the group (crashed) — its endpoint is
    /// dead.
    MemberCrashed,
    /// recv() on a crashed/empty endpoint.
    Disconnected,
    /// recv_timeout() elapsed.
    Timeout,
    /// A transport-level failure (socket error, malformed frame). Only
    /// networked backends produce this.
    Io(String),
}

impl fmt::Display for GcsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GcsError::MemberCrashed => f.write_str("member has crashed"),
            GcsError::Disconnected => f.write_str("endpoint disconnected"),
            GcsError::Timeout => f.write_str("timed out"),
            GcsError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for GcsError {}

/// A multicast-only capability: what protocol code that *sends* (the commit
/// path, progress reports) holds. Split from [`Member`] so the receive loop
/// owns the endpoint exclusively while other threads multicast.
pub trait Cast<M>: Send + Sync {
    /// The member this handle multicasts as.
    fn id(&self) -> MemberId;

    /// Uniform reliable total-order multicast to the whole group (including
    /// the sender). The returned sequence number is advisory — see
    /// [`HELD_SEND_SEQ`]; an `Err` means the message is guaranteed to never
    /// be delivered anywhere.
    fn multicast_total(&self, msg: M) -> Result<u64, GcsError>;

    /// FIFO multicast to the whole group (including the sender).
    fn multicast_fifo(&self, msg: M) -> Result<(), GcsError>;

    /// Crash-stop this member from inside the process that backs it —
    /// crash-point support. Survivors get a view change.
    fn crash_self(&self);

    /// Delivery copies enqueued but not yet received (group-wide for the
    /// sim backend, this endpoint's queue for networked backends).
    fn in_flight(&self) -> GaugeReading;

    /// Wire-level counters for the endpoint this handle multicasts
    /// through. Backends without a wire (the sim tier's lock-protected
    /// queues) report the empty default.
    fn transport(&self) -> TransportSnapshot {
        TransportSnapshot::default()
    }
}

/// A member endpoint: receives deliveries, can multicast, knows the view.
pub trait Member<M>: Send {
    fn id(&self) -> MemberId;

    /// A clonable handle for multicasting from other threads.
    fn handle(&self) -> Box<dyn Cast<M>>;

    /// Blocking receive.
    fn recv(&self) -> Result<Delivery<M>, GcsError>;

    /// Receive with a wall-clock timeout.
    fn recv_timeout(&self, timeout: Duration) -> Result<Delivery<M>, GcsError>;

    /// Non-blocking receive: returns a delivery only if one has already
    /// arrived.
    fn try_recv(&self) -> Option<Delivery<M>>;

    /// The current view as known by this endpoint.
    fn view(&self) -> View;

    /// Delivery copies enqueued but not yet received.
    fn in_flight(&self) -> GaugeReading;

    /// Leave the group. Survivors observe a view change; for backends
    /// without a distinct graceful-leave protocol this is `crash_self`.
    fn leave(&self);

    /// Wire-level counters for this endpoint (empty default for backends
    /// without a wire).
    fn transport(&self) -> TransportSnapshot {
        TransportSnapshot::default()
    }
}

/// A handle on the group itself: join, administratively crash members,
/// observe the view — plus the fault hooks the chaos tier scripts.
///
/// The fault hooks have no-op defaults: deterministic seeded fault
/// injection is a property of the *simulated* network (`DESIGN.md` §12's
/// determinism pillar requires a virtual clock and a seeded schedule, which
/// real sockets cannot provide), so the TCP backend inherits the defaults
/// and the chaos harness stays pinned to [`SimGroup`](crate::SimGroup).
pub trait Group<M>: Send + Sync {
    /// Join the group as the next incarnation of logical replica `replica`
    /// (its first, if it never joined): returns the new member's endpoint.
    /// All members (including the new one) receive the view that adds it.
    fn join_as(&self, replica: u64) -> Result<Box<dyn Member<M>>, GcsError>;

    /// [`Group::join_as`] the next replica id this handle has not handed
    /// out yet.
    fn join(&self) -> Result<Box<dyn Member<M>>, GcsError>;

    /// Administratively crash a member: it is removed from the group and
    /// every survivor receives a view change. Idempotent; unknown ids are
    /// ignored.
    fn crash(&self, id: MemberId);

    /// The current view (live members).
    fn view(&self) -> View;

    /// Delivery copies enqueued but not yet received, with high-water mark.
    fn in_flight(&self) -> GaugeReading;

    /// Install a seeded fault plan whose journal events are stamped against
    /// a shared `epoch`. No-op on backends without deterministic faults.
    fn install_faults_with_epoch(&self, cfg: FaultConfig, epoch: Instant) {
        let _ = (cfg, epoch);
    }

    /// Explicitly partition the group. No-op on backends without
    /// deterministic faults.
    fn partition(&self, members: &[MemberId]) {
        let _ = members;
    }

    /// Heal any active partition. No-op without deterministic faults.
    fn heal(&self) {}

    /// `(fnv1a_fingerprint, record_count)` of the fault schedule so far;
    /// `None` when no plan is installed (always for the TCP backend).
    fn fault_fingerprint(&self) -> Option<(u64, u64)> {
        None
    }

    /// The retained fault schedule (empty without a plan).
    fn fault_log(&self) -> Vec<FaultRecord> {
        Vec::new()
    }

    /// `(faults_injected, partitioned)` gauge readings from the installed
    /// plan, if any.
    fn fault_gauges(&self) -> Option<(GaugeReading, GaugeReading)> {
        None
    }

    /// Snapshot of the network fault journal (empty without a plan).
    fn fault_journal(&self) -> Vec<Event> {
        Vec::new()
    }

    /// Wire-level counters rolled up over every endpoint this group handle
    /// created, kept monotonic across member churn. Backends without a
    /// wire report the empty default.
    fn transport(&self) -> TransportSnapshot {
        TransportSnapshot::default()
    }
}
