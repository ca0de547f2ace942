//! The TCP transport backend: real processes, real sockets, one sequencer.
//!
//! [`TcpGroup`] implements the [`crate::traits`] contract over `std::net`
//! threads and length-prefixed frames (see [`frames`]). All sequencing
//! happens at the [`Sequencer`] service ([`seq`]); members hold one TCP
//! connection each, and whoever calls `recv` reads it, turning
//! [`DownFrame`]s into the same [`Delivery`] stream the sim backend produces.
//!
//! Differences from the sim tier, by design (DESIGN.md §14):
//!
//! - `multicast_total` is **fire-and-forget**: it returns
//!   [`HELD_SEND_SEQ`], and the authoritative sequence number arrives with
//!   the delivery. Per-connection FIFO order still guarantees a member's
//!   own multicasts are sequenced in submission order, which is what the
//!   certification watermark argument needs.
//! - There is no deterministic fault injection; the chaos tier stays on
//!   [`crate::SimGroup`].
//! - Latency is real, not simulated.
//!
//! ## Telemetry
//!
//! Every endpoint counts its wire traffic and tracks one gauge,
//! `pending_sends` (the [`HELD_SEND_SEQ`] window), which is also what
//! `in_flight` reports: a member queues no deliveries, so `recv_queue` reads
//! 0 and a slow replica shows as its backlog in [`SeqStats`]. [`TcpGroup`]
//! rolls the endpoints it created up, dropped ones included, so
//! `Group::transport()` stays monotonic across member churn.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

pub mod frames;
pub mod seq;

use crate::traits::{Cast, Delivery, GcsError, Group, Member, View, HELD_SEND_SEQ};
use frames::{Bytes, DownFrame, UpFrame};
use parking_lot::Mutex;
pub use seq::Sequencer;
use sirep_common::wire::{read_frame, write_frame, write_frame_counted, FrameBuf, Wire};
use sirep_common::{Gauge, GaugeReading, MemberId, TransportSnapshot};
use std::cell::RefCell;
use std::io::{self, ErrorKind};
use std::marker::PhantomData;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Read timeout for every one-shot admin request (`Group::crash`,
/// `Group::view`, [`query_seq_stats`], [`probe_seq_time`]): a hung or
/// half-dead sequencer turns into an `Err`, never a stuck caller.
pub(crate) const ADMIN_TIMEOUT: Duration = Duration::from_secs(5);

/// Group-level telemetry shared by a [`TcpGroup`] and every endpoint it
/// created.
#[derive(Default)]
struct GroupTelemetry {
    /// Endpoints created through this group handle. Weak so a dropped
    /// member releases its socket state; reaped lazily on read.
    live: Mutex<Vec<Weak<TcpShared>>>,
    /// Final counters folded in by dropped endpoints (gauge currents
    /// zeroed, high-waters kept) — keeps the rollup monotonic across
    /// member churn.
    retired: Mutex<TransportSnapshot>,
    /// Joins that returned incarnation > 0: restart recoveries.
    reconnects: AtomicU64,
    /// Endpoints that died (eviction, socket error, leave, crash_self).
    evictions: AtomicU64,
}

impl GroupTelemetry {
    /// Upgradeable live endpoints, dropping the dead weak refs as we go.
    fn live_endpoints(&self) -> Vec<Arc<TcpShared>> {
        let mut live = self.live.lock();
        live.retain(|w| w.strong_count() > 0);
        live.iter().filter_map(Weak::upgrade).collect()
    }

    /// The group-wide rollup: retired + every live endpoint + the
    /// group-level churn counters.
    fn rollup(&self) -> TransportSnapshot {
        let mut snap = *self.retired.lock();
        for shared in self.live_endpoints() {
            snap.absorb(&shared.transport_snapshot());
        }
        snap.reconnects += self.reconnects.load(Ordering::Relaxed);
        snap.evictions += self.evictions.load(Ordering::Relaxed);
        snap
    }
}

/// A group reached through a sequencer service. `join()` assigns logical
/// replica ids `first_replica, first_replica + 1, ...` to successive
/// members; a multinode deployment runs one `TcpGroup` per process with
/// `first_replica` = that process's replica id.
pub struct TcpGroup<M> {
    addr: String,
    next_replica: AtomicU64,
    telemetry: Arc<GroupTelemetry>,
    _msg: PhantomData<fn() -> M>,
}

impl<M: Wire + Clone + Send + 'static> TcpGroup<M> {
    /// A group handle speaking to the sequencer at `addr`
    /// (e.g. `"127.0.0.1:7400"`). No connection is made until `join`.
    pub fn new(addr: impl Into<String>, first_replica: u64) -> TcpGroup<M> {
        TcpGroup {
            addr: addr.into(),
            next_replica: AtomicU64::new(first_replica),
            telemetry: Arc::default(),
            _msg: PhantomData,
        }
    }

    /// [`Group::join_as`] with the concrete endpoint type.
    pub fn join_as(&self, replica: u64) -> Result<TcpMember<M>, GcsError> {
        let member =
            TcpMember::connect(&self.addr, replica, Arc::clone(&self.telemetry)).map_err(io_gcs)?;
        if member.id().incarnation() > 0 {
            self.telemetry.reconnects.fetch_add(1, Ordering::Relaxed);
        }
        self.telemetry.live.lock().push(Arc::downgrade(&member.shared));
        Ok(member)
    }
}

fn io_gcs(e: io::Error) -> GcsError {
    GcsError::Io(e.to_string())
}

impl<M: Wire + Clone + Send + 'static> Group<M> for TcpGroup<M> {
    fn join_as(&self, replica: u64) -> Result<Box<dyn Member<M>>, GcsError> {
        Ok(Box::new(TcpGroup::join_as(self, replica)?))
    }

    fn join(&self) -> Result<Box<dyn Member<M>>, GcsError> {
        Group::join_as(self, self.next_replica.fetch_add(1, Ordering::SeqCst))
    }

    fn crash(&self, id: MemberId) {
        // Best-effort admin request; the reply is read so the eviction's
        // view change is sequenced before this returns.
        let _ = admin_scrape(&self.addr, &UpFrame::Evict { member: id.raw() });
    }

    fn view(&self) -> View {
        match admin_scrape(&self.addr, &UpFrame::Query) {
            Ok(DownFrame::View { id, members }) => {
                View { id, members: members.into_iter().map(MemberId::new).collect() }
            }
            _ => View { id: 0, members: Vec::new() },
        }
    }

    /// In-flight from this process's perspective: multicasts submitted but
    /// not yet sequenced, summed over this handle's endpoints. Unlike the
    /// sim backend this cannot see other processes, and the high-water mark
    /// is the max over endpoints rather than a true group-wide peak — the
    /// conformance suite documents this weakening.
    fn in_flight(&self) -> GaugeReading {
        self.telemetry.rollup().pending_sends
    }

    fn transport(&self) -> TransportSnapshot {
        self.telemetry.rollup()
    }
}

/// State shared between a TCP member's endpoint and its multicast handles.
struct TcpShared {
    id: MemberId,
    /// Write half of the member's connection; the lock keeps concurrent
    /// multicasts' frames from interleaving mid-frame.
    write: Mutex<TcpStream>,
    /// Socket handle used only for shutdown (leave / crash_self / drop).
    sock: TcpStream,
    /// Set once this endpoint is known dead (evicted, socket error, or
    /// crash_self); multicasts fail fast afterwards.
    crashed: AtomicBool,
    /// Total-order multicasts submitted but not yet sequenced (closed when
    /// our own delivery comes back; zeroed when the endpoint dies, since
    /// an evicted member's in-flight sends are dropped by the sequencer).
    pending_sends: Gauge,
    frames_in: AtomicU64,
    bytes_in: AtomicU64,
    frames_out: AtomicU64,
    bytes_out: AtomicU64,
    decode_failures: AtomicU64,
    /// Group-level telemetry to fold our final counters into on drop.
    telemetry: Arc<GroupTelemetry>,
}

impl TcpShared {
    fn mark_crashed(&self) {
        if !self.crashed.swap(true, Ordering::SeqCst) {
            // First death only: count one eviction and retire the pending
            // window — frames an evicted member had in flight are dropped
            // by the sequencer ("not at all"), so they will never come
            // back to decrement the gauge.
            self.telemetry.evictions.fetch_add(1, Ordering::Relaxed);
            self.pending_sends.set(0);
        }
        let _ = self.sock.shutdown(Shutdown::Both);
    }

    /// This endpoint's counters. `reconnects`/`evictions` stay zero here —
    /// they are group-level churn, counted once by [`GroupTelemetry`].
    fn transport_snapshot(&self) -> TransportSnapshot {
        TransportSnapshot {
            frames_in: self.frames_in.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            frames_out: self.frames_out.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            decode_failures: self.decode_failures.load(Ordering::Relaxed),
            reconnects: 0,
            evictions: 0,
            pending_sends: self.pending_sends.read(),
            // Always 0: the member holds no queue of deliveries.
            recv_queue: GaugeReading::default(),
        }
    }
}

impl Drop for TcpShared {
    fn drop(&mut self) {
        // Fold the final counters into the group rollup so they survive
        // the endpoint. Currents are transient state of a now-dead socket:
        // zero them, keep the high-water marks.
        let mut snap = self.transport_snapshot();
        snap.pending_sends.current = 0;
        self.telemetry.retired.lock().absorb(&snap);
    }
}

/// The read half of a member's connection, owned by the endpoint. `buf`
/// holds what a read took off the socket and `recv` has not delivered yet —
/// that is all a member buffers: its receive queue is the kernel's socket
/// buffer and, behind that, its cursor into the sequencer's log.
struct RecvState {
    stream: TcpStream,
    buf: FrameBuf,
    /// The socket's read timeout as last set (`None`: blocking).
    timeout: Option<Duration>,
    /// The last total-order `seq` delivered. The sequencer's stream is
    /// strictly increasing per connection, so a frame at or below it is a
    /// replayed duplicate.
    last_seq: Option<u64>,
    /// Latest view delivered.
    view: View,
}

impl RecvState {
    /// The next frame, with its size on the wire. The socket is read only
    /// when `buf` holds no whole frame, waiting there until `wait` after
    /// `start` (`None`: for ever); `Ok(None)` is that wait running out, with
    /// whatever did arrive kept. EOF and a malformed frame are errors.
    fn next_frame(
        &mut self,
        wait: Option<Duration>,
        start: Instant,
    ) -> io::Result<Option<(DownFrame, u64)>> {
        let mut left = wait;
        loop {
            if let Some(frame) = self.buf.pop()? {
                return Ok(Some(frame));
            }
            if left.is_some_and(|left| left.is_zero()) {
                return Ok(None);
            }
            // One `setsockopt` per change: a loop calling `recv_timeout` with
            // a fixed value pays it once.
            if left != self.timeout {
                self.stream.set_read_timeout(left)?;
                self.timeout = left;
            }
            match self.buf.fill(&mut self.stream) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Ok(None);
                }
                Err(e) => return Err(e),
            }
            // A later read in this call waits only for what is left.
            left = wait.map(|wait| wait.saturating_sub(start.elapsed()));
        }
    }
}

/// A member endpoint over TCP. Created via [`TcpGroup::join_as`] /
/// `Group::join`. Dropping it leaves the group.
pub struct TcpMember<M> {
    recv: RefCell<RecvState>,
    shared: Arc<TcpShared>,
    _msg: PhantomData<fn() -> M>,
}

impl<M> Drop for TcpMember<M> {
    fn drop(&mut self) {
        self.shared.mark_crashed();
    }
}

impl<M: Wire + Clone + Send + 'static> TcpMember<M> {
    fn connect(
        addr: &str,
        replica: u64,
        telemetry: Arc<GroupTelemetry>,
    ) -> io::Result<TcpMember<M>> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        write_frame(&mut stream, &UpFrame::Join { replica })?;
        let DownFrame::Welcome { member } = read_frame(&mut stream)? else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "sequencer did not start with Welcome",
            ));
        };
        let shared = Arc::new(TcpShared {
            id: MemberId::new(member),
            write: Mutex::new(stream.try_clone()?),
            sock: stream.try_clone()?,
            crashed: AtomicBool::new(false),
            pending_sends: Gauge::new(),
            frames_in: AtomicU64::new(0),
            bytes_in: AtomicU64::new(0),
            frames_out: AtomicU64::new(0),
            bytes_out: AtomicU64::new(0),
            decode_failures: AtomicU64::new(0),
            telemetry,
        });
        let view = View { id: 0, members: Vec::new() };
        let recv =
            RecvState { stream, buf: FrameBuf::default(), timeout: None, last_seq: None, view };
        Ok(TcpMember { recv: RefCell::new(recv), shared, _msg: PhantomData })
    }

    /// The member id the sequencer assigned.
    pub fn id(&self) -> MemberId {
        self.shared.id
    }

    /// The next delivery off the socket, on the calling thread, waiting at
    /// most `wait` for it (`None`: for ever). All a frame does to the
    /// endpoint happens here. The stream ending (EOF, a corrupt frame, a
    /// confused peer) is `Disconnected` and the endpoint is dead; `leave`,
    /// `crash_self`, an eviction and the sequencer's shutdown end it by
    /// shutting the socket down, which also ends a blocked read.
    fn take(&self, wait: Option<Duration>) -> Result<Delivery<M>, GcsError> {
        let shared = &*self.shared;
        let mut recv = self.recv.borrow_mut();
        let start = Instant::now();
        let delivery = loop {
            let (frame, bytes) = match recv.next_frame(wait, start) {
                Ok(Some(next)) => next,
                Ok(None) => return Err(GcsError::Timeout),
                Err(_) => break None,
            };
            shared.frames_in.fetch_add(1, Ordering::Relaxed);
            shared.bytes_in.fetch_add(bytes, Ordering::Relaxed);
            let (sender, payload, seq) = match frame {
                DownFrame::Total { seq, sender, payload } => {
                    if recv.last_seq.is_some_and(|last| seq <= last) {
                        continue;
                    }
                    recv.last_seq = Some(seq);
                    if sender == shared.id.raw() {
                        // Our own multicast came back sequenced: the
                        // HELD_SEND_SEQ window for it is closed.
                        shared.pending_sends.sub(1);
                    }
                    (MemberId::new(sender), payload, Some(seq))
                }
                DownFrame::Fifo { sender, payload } => (MemberId::new(sender), payload, None),
                DownFrame::View { id, members } => {
                    let members = members.into_iter().map(MemberId::new).collect();
                    recv.view = View { id, members };
                    break Some(Delivery::ViewChange(recv.view.clone()));
                }
                // Welcome is consumed during the handshake; Evicted and the
                // admin replies only go to admin connections: a confused peer.
                _ => break None,
            };
            let Ok(msg) = M::from_wire(&payload.0) else {
                shared.decode_failures.fetch_add(1, Ordering::Relaxed);
                break None;
            };
            break Some(match seq {
                Some(seq) => {
                    Delivery::TotalOrder { seq, sender, sequenced_at: Instant::now(), msg }
                }
                None => Delivery::Fifo { sender, msg },
            });
        };
        delivery.ok_or_else(|| {
            shared.mark_crashed();
            GcsError::Disconnected
        })
    }
}

impl<M: Wire + Clone + Send + 'static> Member<M> for TcpMember<M> {
    fn id(&self) -> MemberId {
        self.shared.id
    }

    fn handle(&self) -> Box<dyn Cast<M>> {
        Box::new(TcpCast { shared: Arc::clone(&self.shared), _msg: PhantomData::<fn() -> M> })
    }

    fn recv(&self) -> Result<Delivery<M>, GcsError> {
        self.take(None)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Delivery<M>, GcsError> {
        self.take(Some(timeout))
    }

    /// Whatever has reached the socket; when nothing has, this waits one
    /// clock tick of the kernel's (a socket read timeout cannot be zero).
    fn try_recv(&self) -> Option<Delivery<M>> {
        self.take(Some(Duration::from_micros(1))).ok()
    }

    fn view(&self) -> View {
        self.recv.borrow().view.clone()
    }

    fn in_flight(&self) -> GaugeReading {
        self.shared.pending_sends.read()
    }

    fn leave(&self) {
        self.shared.mark_crashed();
    }

    fn transport(&self) -> TransportSnapshot {
        self.shared.transport_snapshot()
    }
}

/// Multicast handle over the member's connection.
pub struct TcpCast<M> {
    shared: Arc<TcpShared>,
    _msg: PhantomData<fn() -> M>,
}

impl<M: Wire + Clone + Send + 'static> TcpCast<M> {
    fn send(&self, frame: &UpFrame) -> Result<(), GcsError> {
        if self.shared.crashed.load(Ordering::SeqCst) {
            return Err(GcsError::MemberCrashed);
        }
        let mut stream = self.shared.write.lock();
        match write_frame_counted(&mut *stream, frame) {
            Ok(bytes) => {
                self.shared.frames_out.fetch_add(1, Ordering::Relaxed);
                self.shared.bytes_out.fetch_add(bytes, Ordering::Relaxed);
                Ok(())
            }
            Err(e) => {
                drop(stream);
                self.shared.mark_crashed();
                Err(io_gcs(e))
            }
        }
    }
}

impl<M: Wire + Clone + Send + 'static> Cast<M> for TcpCast<M> {
    fn id(&self) -> MemberId {
        self.shared.id
    }

    /// Fire-and-forget: the frame is on the socket (in per-connection FIFO
    /// order, which preserves this member's submission order through the
    /// sequencer) but not yet sequenced, so this returns
    /// [`HELD_SEND_SEQ`]. The real sequence number arrives with the
    /// delivery. An `Err` guarantees the message will never be delivered.
    fn multicast_total(&self, msg: M) -> Result<u64, GcsError> {
        // Open the pending window before the bytes can hit the wire, so
        // the gauge never reads zero while a send is actually in flight;
        // roll back on error (same discipline as the sim tier's gauge).
        self.shared.pending_sends.add(1);
        if let Err(e) = self.send(&UpFrame::Total { payload: Bytes(msg.to_wire()) }) {
            self.shared.pending_sends.sub(1);
            return Err(e);
        }
        Ok(HELD_SEND_SEQ)
    }

    fn multicast_fifo(&self, msg: M) -> Result<(), GcsError> {
        self.send(&UpFrame::Fifo { payload: Bytes(msg.to_wire()) })
    }

    fn crash_self(&self) {
        // Crash-stop: just die; the sequencer's EOF detection evicts us and
        // sequences the view change, exactly like a process kill.
        self.shared.mark_crashed();
    }

    fn in_flight(&self) -> GaugeReading {
        self.shared.pending_sends.read()
    }

    fn transport(&self) -> TransportSnapshot {
        self.shared.transport_snapshot()
    }
}

// ======================================================================
// One-shot sequencer admin requests (`Group::crash`/`view`, the
// report/audit roles, the telemetry service).
// ======================================================================

/// Sequencer-side observability counters, scraped over a one-shot admin
/// connection by [`query_seq_stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SeqStats {
    /// Frames in the sequenced log (never truncated).
    pub log_len: u64,
    /// Next total-order sequence number to assign.
    pub next_seq: u64,
    /// Current view id.
    pub view_id: u64,
    /// `(member, backlog)` pairs sorted by member id: log frames not yet
    /// taken for the member's socket (`log_len` minus its cursor) — the
    /// fan-out backlog broken down by destination.
    pub members: Vec<(u64, u64)>,
}

impl SeqStats {
    /// Total fan-out backlog across all members.
    pub fn backlog(&self) -> u64 {
        self.members.iter().map(|&(_, depth)| depth).sum()
    }
}

fn admin_scrape(addr: &str, req: &UpFrame) -> io::Result<DownFrame> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(ADMIN_TIMEOUT))?;
    write_frame(&mut stream, req)?;
    read_frame(&mut stream)
}

/// Scrape the sequencer's observability counters.
pub fn query_seq_stats(addr: &str) -> io::Result<SeqStats> {
    match admin_scrape(addr, &UpFrame::Stats)? {
        DownFrame::Stats { log_len, next_seq, view_id, members } => {
            Ok(SeqStats { log_len, next_seq, view_id, members })
        }
        _ => Err(io::Error::new(io::ErrorKind::InvalidData, "unexpected reply to Stats")),
    }
}

/// Read the sequencer's monotonic clock (nanoseconds since it started
/// serving). One leg of the clock-offset handshake: callers sample their
/// own clock before and after and take the midpoint as the exchange time.
pub fn probe_seq_time(addr: &str) -> io::Result<u64> {
    match admin_scrape(addr, &UpFrame::TimeProbe)? {
        DownFrame::Time { now_ns } => Ok(now_ns),
        _ => Err(io::Error::new(io::ErrorKind::InvalidData, "unexpected reply to TimeProbe")),
    }
}
