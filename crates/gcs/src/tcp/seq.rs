//! The sequencer service: a single process that imposes the group's total
//! order over TCP.
//!
//! This file is the I/O shell — sockets, threads and one condvar — over
//! the [`SeqLog`] core, which owns the sequenced stream, the member cursors
//! and the delivery contract (see `seqlog.rs`). Here a frame is one
//! length-prefixed [`DownFrame`] and a member is a socket plus its cursor.
//! Sequencing is "append, wake the writers"; each member's writer thread
//! takes the frames past its cursor (a bounded chunk) under the lock and
//! puts them on the socket with one write, outside it. A slow or dead peer
//! never blocks sequencing — its cursor falls behind ([`DownFrame::Stats`]
//! reports by how much) and a failed write evicts it.
//!
//! A joiner starts at cursor 0: a restarted replica recovers by
//! deterministic replay rather than state transfer. The member id `Welcome`
//! returns carries the replica's next **incarnation**, which the middleware
//! folds into fresh transaction ids so replayed-and-deduped outcomes can
//! never collide with new ones. Nothing calls [`SeqLog::trim`] here yet —
//! acceptable for the smoke tier this backend serves; trimming needs a
//! checkpoint for later joiners (ROADMAP item 2).
//!
//! Failure detection is TCP-level: a member connection reaching EOF or an
//! unwritable outbound socket evicts the member and sequences the view
//! change. There is no failure *suspicion* — exactly the crash-stop model
//! the paper assumes.

use super::frames::{DownFrame, UpFrame};
use crate::seqlog::SeqLog;
use parking_lot::{Condvar, Mutex};
use sirep_common::wire::{framed, read_frame, write_frame};
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

/// A writer takes frames past its cursor until the chunk reaches this many
/// bytes (at least one frame), so one socket write carries a run of frames
/// and the copy under the sequencer lock stays short.
const WRITE_CHUNK: usize = 64 << 10;

/// The sequenced stream in the length-prefixed form that goes on the wire;
/// per member the log keeps its socket, for shutdown at eviction (wakes
/// both the member's reader and our writer).
type Log = SeqLog<Vec<u8>, TcpStream>;

fn view_frame(log: &Log) -> DownFrame {
    DownFrame::View { id: log.view_id(), members: log.members().map(|(id, _)| id).collect() }
}

fn framed_view(log: &Log) -> Vec<u8> {
    framed(&view_frame(log))
}

/// Evict `ids` under the state lock, then — with the lock released — wake
/// the writers (the evicted ones exit, the rest send the view) and shut the
/// evicted sockets down (wakes each evicted member's reader and a writer
/// blocked on its socket). The shutdown is a syscall: under the lock it
/// would stall sequencing while the kernel tears down a dead peer's socket.
fn evict_and_shutdown(inner: &SeqInner, ids: &[u64]) {
    let evicted = inner.state.lock().evict(ids, framed_view);
    inner.appended.notify_all();
    for stream in evicted {
        let _ = stream.shutdown(Shutdown::Both);
    }
}

struct SeqInner {
    state: Mutex<Log>,
    /// Signalled after every log append and every eviction; writers wait on
    /// it (under `state`) for their cursor to fall behind the log.
    appended: Condvar,
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
            appended: Condvar::new(),
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
                let _ = inner
                    .state
                    .lock()
                    .total(id, |seq| framed(&DownFrame::Total { seq, sender: id, payload }));
                inner.appended.notify_all();
                continue;
            }
            (UpFrame::Fifo { payload }, Some(id)) => {
                let frame = framed(&DownFrame::Fifo { sender: id, payload });
                let _ = inner.state.lock().fifo(id, frame);
                inner.appended.notify_all();
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

/// Admit a joiner: the log mints its member id, registers its cursor at
/// the start and sequences the view that includes it (O(1) under the lock
/// — the history reaches the joiner through its writer like everything
/// else); reply `Welcome`, and start the writer via `start_writer`. From
/// registration on the member is in every view, so any later failure
/// evicts it again.
fn handle_join(
    stream: &TcpStream,
    inner: &Arc<SeqInner>,
    replica: u64,
    start_writer: impl FnOnce(TcpStream, Arc<SeqInner>, u64) -> io::Result<()>,
) -> io::Result<u64> {
    let conn = stream.try_clone()?;
    let write = stream.try_clone()?;
    let id = inner.state.lock().admit(replica, conn, 0, framed_view);
    let Some(id) = id else {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, "replica id exceeds 32 bits"));
    };
    inner.appended.notify_all();
    // The handshake reply goes out before the writer exists, so it precedes
    // every log frame on the socket.
    let started = write_frame(&mut (&write), &DownFrame::Welcome { member: id })
        .and_then(|()| start_writer(write, Arc::clone(inner), id));
    if let Err(e) = started {
        evict_and_shutdown(inner, &[id]);
        return Err(e);
    }
    Ok(id)
}

fn spawn_writer(stream: TcpStream, inner: Arc<SeqInner>, id: u64) -> io::Result<()> {
    thread::Builder::new()
        .name("sirep-seq-writer".into())
        .spawn(move || writer_loop(stream, &inner, id))
        .map(drop)
}

/// Send member `id` the log from its cursor on: wait until the cursor is
/// behind the log, copy a chunk of frames out and advance the cursor — all
/// under the lock — then put the chunk on the socket with one write, lock
/// released. Returns once the member is evicted; a write failure means the
/// peer is gone: evict it so the group agrees.
fn writer_loop(mut stream: TcpStream, inner: &SeqInner, id: u64) {
    let mut chunk = Vec::new();
    loop {
        chunk.clear();
        let mut taken = 0;
        let mut log = inner.state.lock();
        loop {
            let Some((_, frames)) = log.pending(id) else { return };
            for frame in frames {
                chunk.extend_from_slice(frame);
                taken += 1;
                if chunk.len() >= WRITE_CHUNK {
                    break;
                }
            }
            if taken > 0 {
                break;
            }
            inner.appended.wait(&mut log);
        }
        log.advance(id, taken);
        drop(log);
        if stream.write_all(&chunk).is_err() {
            evict_and_shutdown(inner, &[id]);
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Delivery, Member, TcpGroup};
    use std::time::Duration;

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
        let failed = handle_join(&server_side, &seq.inner, 7, |_, _, _| {
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
