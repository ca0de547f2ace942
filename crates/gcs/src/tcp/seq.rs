//! The sequencer service: a single process that imposes the group's total
//! order over TCP.
//!
//! This file is the I/O shell — sockets and threads — over the [`SeqLog`]
//! core, which owns the stream, the cursors, who may write to each socket
//! and the delivery contract (see `seqlog.rs`). A frame is one
//! length-prefixed [`DownFrame`]; a member is a socket plus its writer's
//! `wake`. The thread that appends a frame writes it to every member that
//! keeps up; one whose socket stays full for [`STALL`] goes to its writer
//! (DESIGN.md §14). sirep-model's `seq` scope drives the core the same way.
//!
//! A joiner starts at cursor 0: a restarted replica recovers by
//! deterministic replay rather than state transfer. The member id `Welcome`
//! returns carries the replica's next **incarnation**, which the middleware
//! folds into fresh transaction ids so replayed-and-deduped outcomes can
//! never collide with new ones. Nothing calls [`SeqLog::trim`] here yet —
//! acceptable for the smoke tier this backend serves; trimming needs a
//! checkpoint for later joiners (ROADMAP item 2(c)).
//!
//! Failure detection is TCP-level: a member connection reaching EOF or an
//! unwritable outbound socket evicts the member and sequences the view
//! change. There is no failure *suspicion* — exactly the crash-stop model
//! the paper assumes.

use super::frames::{DownFrame, UpFrame};
use crate::seqlog::SeqLog;
use parking_lot::{Condvar, Mutex};
use sirep_common::wire::{framed, read_frame, write_frame};
use std::io::{self, BufReader, ErrorKind, IoSlice, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// A chunk is taken until it has this many bytes (at least one frame).
const WRITE_CHUNK: usize = 64 << 10;

/// How long a write may wait for room in a member's socket before the
/// member goes to its writer. Required, not tuning: a connection thread is
/// the only reader of its member's upstream, and a node multicasts under the
/// lock its delivery thread — the downstream's reader — needs, so an
/// unbounded inline write into a full socket can deadlock the two.
const STALL: Duration = Duration::from_millis(2);

/// Take-and-write rounds of an appender before leftovers go to the writers.
const PASSES: usize = 2;

/// Per member besides its cursor and owner, under the sequencer lock.
struct Conn {
    stream: Arc<TcpStream>,
    /// The member's writer waits here to be handed the member.
    wake: Arc<Condvar>,
}

/// The sequenced stream in its wire form; chunks share frames, never copy.
type Log = SeqLog<Arc<[u8]>, Conn>;

fn view_frame(log: &Log) -> DownFrame {
    DownFrame::View { id: log.view_id(), members: log.members().map(|(id, _)| id).collect() }
}

fn framed_view(log: &Log) -> Arc<[u8]> {
    framed(&view_frame(log)).into()
}

/// Member `id`'s next chunk, taken by its owner: up to `WRITE_CHUNK` bytes
/// (at least one frame).
fn next_chunk(log: &mut Log, id: u64) -> Vec<Arc<[u8]>> {
    let mut bytes = 0;
    log.take(id, |frame| {
        bytes += frame.len();
        bytes < WRITE_CHUNK
    })
}

/// Put `chunk` on `stream` with one `write_vectored` — under `STALL`, as
/// much as fits within it, so a member that reads slowly holds the writing
/// thread for one `STALL`, not for as long as it keeps making room. Returns
/// what is left unsent. An error: peer gone.
fn send_chunk(mut stream: &TcpStream, chunk: &[Arc<[u8]>]) -> io::Result<Vec<u8>> {
    let slices: Vec<IoSlice<'_>> = chunk.iter().map(|b| IoSlice::new(b)).collect();
    let sent = loop {
        match stream.write_vectored(&slices) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => break n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => break 0,
            Err(e) => return Err(e),
        }
    };
    Ok(chunk.iter().flat_map(|b| b.iter().copied()).skip(sent).collect())
}

/// Give member `id` up with what its last write left unsent, and wake its
/// writer if the member went to it.
fn hand_back(log: &mut Log, id: u64, leftover: Option<Arc<[u8]>>) {
    if let (true, Some(conn)) = (log.release(id, leftover), log.conn_mut(id)) {
        conn.wake.notify_one();
    }
}

/// Append with `append`, claim the members it gave frames to and, for
/// `PASSES` rounds, take their chunks under the lock and send them outside;
/// leftovers go to the writers. A failed write evicts, once the rounds are
/// over.
fn fan_out<R>(inner: &SeqInner, append: impl FnOnce(&mut Log) -> R) -> R {
    let mut log = inner.state.lock();
    let appended = append(&mut log);
    let (mut mine, mut failed) = (log.claim(), Vec::new());
    for _ in 0..PASSES {
        let mut chunks = Vec::new();
        for id in mine.drain(..) {
            let chunk = next_chunk(&mut log, id);
            match log.conn_mut(id).filter(|_| !chunk.is_empty()) {
                Some(conn) => chunks.push((id, Arc::clone(&conn.stream), chunk)),
                None => hand_back(&mut log, id, None),
            }
        }
        if chunks.is_empty() {
            break;
        }
        drop(log);
        let sent: Vec<_> = chunks
            .into_iter()
            .map(|(id, stream, chunk)| (id, send_chunk(&stream, &chunk)))
            .collect();
        log = inner.state.lock();
        for (id, sent) in sent {
            match sent {
                Ok(rest) if rest.is_empty() => mine.push(id),
                Ok(rest) => hand_back(&mut log, id, Some(rest.into())),
                // Still this thread's until evicted below.
                Err(_) => failed.push(id),
            }
        }
    }
    mine.iter().for_each(|&id| hand_back(&mut log, id, None));
    drop(log);
    if !failed.is_empty() {
        evict_and_shutdown(inner, &failed);
    }
    appended
}

/// Evict `ids` and fan the view out, then wake their writers to exit and
/// shut their sockets down (ending their connection threads and blocked
/// writes) — a syscall, so after unlock: under it the kernel's teardown
/// would stall sequencing.
fn evict_and_shutdown(inner: &SeqInner, ids: &[u64]) {
    for conn in fan_out(inner, |log| log.evict(ids, framed_view)) {
        conn.wake.notify_one();
        let _ = conn.stream.shutdown(Shutdown::Both);
    }
}

struct SeqInner {
    state: Mutex<Log>,
    shutdown: AtomicBool,
    /// When the service started — the zero point of the monotonic clock
    /// reported by [`UpFrame::TimeProbe`], against which every node process
    /// aligns its trace timestamps.
    epoch: Instant,
}

/// The sequencer service handle. Dropping it shuts the service down.
pub struct Sequencer {
    inner: Arc<SeqInner>,
    addr: SocketAddr,
    listener: TcpListener,
}

impl Sequencer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and start
    /// serving.
    pub fn spawn(addr: &str) -> io::Result<Sequencer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let inner = Arc::new(SeqInner {
            state: Mutex::new(SeqLog::default()),
            shutdown: AtomicBool::new(false),
            epoch: Instant::now(),
        });
        let accept_inner = Arc::clone(&inner);
        let accept_listener = listener.try_clone()?;
        thread::Builder::new()
            .name("sirep-seq-accept".into())
            .spawn(move || accept_loop(&accept_listener, &accept_inner))?;
        Ok(Sequencer { inner, addr, listener })
    }

    /// The bound address members connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Total-order sequence numbers assigned so far.
    pub fn sequenced(&self) -> u64 {
        self.inner.state.lock().next_seq()
    }

    /// Stop accepting, evict every member, and wake all service threads.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        let ids: Vec<u64> = self.inner.state.lock().members().map(|(id, _)| id).collect();
        evict_and_shutdown(&self.inner, &ids);
        // Unblock the accept loop.
        let _ = TcpStream::connect(self.addr);
        // A second path for platforms where the self-connect races the
        // accept: closing our clone is harmless either way.
        let _ = self.listener.set_nonblocking(true);
    }
}

impl Drop for Sequencer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, inner: &Arc<SeqInner>) {
    loop {
        let conn = listener.accept();
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok((stream, _)) = conn else { return };
        // Sequenced frames are small and latency-critical: never Nagle them.
        let _ = stream.set_nodelay(true);
        let conn_inner = Arc::clone(inner);
        let spawned = thread::Builder::new()
            .name("sirep-seq-conn".into())
            .spawn(move || serve_conn(stream, &conn_inner));
        if spawned.is_err() {
            return;
        }
    }
}

/// Serve one inbound connection: a member connection (starts with `Join`)
/// or an admin connection (`Evict`/`Query` request-reply frames).
fn serve_conn(stream: TcpStream, inner: &Arc<SeqInner>) {
    // Reads go through a buffer (one `read` per frame, or per run of them);
    // replies are written to the socket itself.
    let Ok(read) = stream.try_clone() else { return };
    let mut read = BufReader::new(read);
    // Which member this connection speaks for, once joined.
    let mut member: Option<u64> = None;
    while let Ok(frame) = read_frame::<_, UpFrame>(&mut read) {
        let reply = match (frame, member) {
            (UpFrame::Join { replica }, None) => {
                match handle_join(&stream, inner, replica, spawn_writer) {
                    Ok(id) => member = Some(id),
                    Err(_) => break,
                }
                continue;
            }
            // The log refuses an evicted member's in-flight frames: the
            // uniform-delivery contract's "not at all" arm.
            (UpFrame::Total { payload }, Some(id)) => {
                let frame = |seq| framed(&DownFrame::Total { seq, sender: id, payload }).into();
                fan_out(inner, |log| log.total(id, frame));
                continue;
            }
            (UpFrame::Fifo { payload }, Some(id)) => {
                let frame = framed(&DownFrame::Fifo { sender: id, payload }).into();
                fan_out(inner, |log| log.fifo(id, frame));
                continue;
            }
            (UpFrame::Leave, Some(_)) => break,
            (UpFrame::Evict { member }, None) => {
                evict_and_shutdown(inner, &[member]);
                DownFrame::Evicted
            }
            (UpFrame::Query, None) => view_frame(&inner.state.lock()),
            (UpFrame::Stats, None) => {
                let log = inner.state.lock();
                DownFrame::Stats {
                    log_len: log.end(),
                    next_seq: log.next_seq(),
                    view_id: log.view_id(),
                    members: log.backlog().collect(),
                }
            }
            (UpFrame::TimeProbe, None) => DownFrame::Time {
                now_ns: inner.epoch.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
            },
            // Protocol violations (Join twice, payload before Join, admin
            // frames on a member connection) end the connection.
            _ => break,
        };
        if write_frame(&mut (&stream), &reply).is_err() {
            break;
        }
    }
    if let Some(id) = member {
        evict_and_shutdown(inner, &[id]);
    }
}

/// Admit a joiner, owned by this thread: the log mints its id, registers its
/// cursor at 0 and sequences its view (O(1) under the lock). Reply
/// `Welcome`, start its writer (`start_writer`) and hand it the member: the
/// history follows `Welcome`. Any later failure evicts the member again.
fn handle_join(
    stream: &TcpStream,
    inner: &Arc<SeqInner>,
    replica: u64,
    start_writer: impl FnOnce(Arc<SeqInner>, u64) -> io::Result<()>,
) -> io::Result<u64> {
    stream.set_write_timeout(Some(STALL))?;
    let write = Arc::new(stream.try_clone()?);
    let conn = Conn { stream: Arc::clone(&write), wake: Arc::default() };
    let Some(id) = fan_out(inner, |log| log.admit(replica, conn, 0, framed_view)) else {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, "replica id exceeds 32 bits"));
    };
    let started = write_frame(&mut (&*write), &DownFrame::Welcome { member: id })
        .and_then(|()| start_writer(Arc::clone(inner), id));
    if let Err(e) = started {
        evict_and_shutdown(inner, &[id]);
        return Err(e);
    }
    hand_back(&mut inner.state.lock(), id, None);
    Ok(id)
}

fn spawn_writer(inner: Arc<SeqInner>, id: u64) -> io::Result<()> {
    thread::Builder::new()
        .name("sirep-seq-writer".into())
        .spawn(move || writer_loop(&inner, id))
        .map(drop)
}

/// Member `id`'s writer: wait to be handed the member, catch it up, give it
/// back; until it is evicted. A failed write evicts it so the group agrees.
fn writer_loop(inner: &SeqInner, id: u64) {
    let mut log = inner.state.lock();
    let Some(conn) = log.conn_mut(id) else { return };
    let (stream, wake) = (Arc::clone(&conn.stream), Arc::clone(&conn.wake));
    while let Some(owned) = log.writer_owns(id) {
        if !owned {
            wake.wait(&mut log);
            continue;
        }
        drop(log);
        if catch_up(inner, id, &stream).is_err() {
            return evict_and_shutdown(inner, &[id]);
        }
        log = inner.state.lock();
        hand_back(&mut log, id, None);
    }
}

/// Send member `id` chunks until it has caught up, its send timeout cleared
/// meanwhile: a full socket puts the writer to sleep, not to a poll.
fn catch_up(inner: &SeqInner, id: u64, mut stream: &TcpStream) -> io::Result<()> {
    stream.set_write_timeout(None)?;
    let mut chunk = next_chunk(&mut inner.state.lock(), id);
    while !chunk.is_empty() {
        // No timeout: the rest of a short write blocks until it is out.
        stream.write_all(&send_chunk(stream, &chunk)?)?;
        chunk = next_chunk(&mut inner.state.lock(), id);
    }
    stream.set_write_timeout(Some(STALL))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Delivery, Member, TcpGroup};

    fn next_view(m: &impl Member<u64>) -> Vec<u64> {
        match m.recv_timeout(Duration::from_secs(5)).expect("view change") {
            Delivery::ViewChange(v) => v.members.iter().map(|m| m.raw()).collect(),
            other => panic!("unexpected delivery: {other:?}"),
        }
    }

    /// A join that fails after its cursor was registered (here: the writer
    /// cannot be started) must not leave a ghost member in the views — the
    /// joiner is evicted and the survivors see it go.
    #[test]
    fn join_failing_after_registration_is_evicted() {
        let seq = Sequencer::spawn("127.0.0.1:0").expect("bind sequencer");
        let group: TcpGroup<u64> = TcpGroup::new(seq.addr().to_string(), 0);
        let survivor = group.join_as(0).expect("join");
        assert_eq!(next_view(&survivor), vec![0]);

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut joiner = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (server_side, _) = listener.accept().expect("accept");
        let failed = handle_join(&server_side, &seq.inner, 7, |_, _| {
            Err(io::Error::other("cannot start a writer"))
        });
        assert!(failed.is_err());

        assert_eq!(next_view(&survivor), vec![0, 7], "the joiner was registered");
        assert_eq!(next_view(&survivor), vec![0], "and evicted again when its writer failed");
        let log = seq.inner.state.lock();
        assert_eq!(log.members().map(|(id, _)| id).collect::<Vec<_>>(), vec![0]);
        assert_eq!(log.view_id(), 3);
        drop(log);
        // The joiner got its Welcome and then a closed socket — no frames.
        assert!(matches!(read_frame(&mut joiner), Ok(DownFrame::Welcome { member: 7 })));
        assert!(read_frame::<_, DownFrame>(&mut joiner).is_err());
    }
}
