//! A `TcpMember` reads its own socket (gcs/src/tcp/mod.rs): whoever calls
//! `recv` is the reader, there is no thread and no queue behind it. Two
//! things that used to be a reader thread's business are the endpoint's now:
//!
//! - framing — a frame arrives in as many pieces as TCP likes, a
//!   `recv_timeout` may run out in the middle of one, and nothing may be
//!   lost or delivered twice;
//! - waking up — a `recv` blocked on an idle socket must end when the
//!   endpoint dies, whoever kills it.

use si_rep::common::wire::{framed, read_frame, write_frame, Wire};
use si_rep::gcs::tcp::frames::{Bytes, DownFrame, UpFrame};
use si_rep::gcs::{Delivery, GcsError, Group, Member, Sequencer, TcpGroup, TcpMember};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

const MEMBER: u64 = 0;
const RECV_TIMEOUT: Duration = Duration::from_millis(3);

/// One delivery, comparable.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Got {
    Total(u64, u64, String),
    Fifo(u64, String),
    View(u64, Vec<u64>),
}

fn got(d: Delivery<String>) -> Got {
    match d {
        Delivery::TotalOrder { seq, sender, msg, .. } => Got::Total(seq, sender.raw(), msg),
        Delivery::Fifo { sender, msg } => Got::Fifo(sender.raw(), msg),
        Delivery::ViewChange(v) => Got::View(v.id, v.members.iter().map(|m| m.raw()).collect()),
        Delivery::TotalBatch { .. } => panic!("no backend sends batches"),
    }
}

/// The scripted stream: every frame kind a member connection carries, a
/// replayed sequence number (dropped by the endpoint) and one frame larger
/// than the endpoint's read buffer. Returns the bytes, where each frame ends
/// in them, and what each frame delivers (`None`: the duplicate).
fn script() -> (Vec<u8>, Vec<usize>, Vec<Option<Got>>) {
    let text = |s: &str| Bytes(s.to_string().to_wire());
    let big = "x".repeat(20_000);
    let frames = [
        (DownFrame::View { id: 1, members: vec![MEMBER] }, Some(Got::View(1, vec![MEMBER]))),
        (
            DownFrame::Total { seq: 0, sender: MEMBER, payload: text("own") },
            Some(Got::Total(0, MEMBER, "own".into())),
        ),
        (DownFrame::Fifo { sender: 7, payload: text("") }, Some(Got::Fifo(7, String::new()))),
        (
            DownFrame::Total { seq: 1, sender: 7, payload: text("theirs") },
            Some(Got::Total(1, 7, "theirs".into())),
        ),
        (DownFrame::Total { seq: 1, sender: 7, payload: text("replayed") }, None),
        (DownFrame::Total { seq: 2, sender: 7, payload: text(&big) }, Some(Got::Total(2, 7, big))),
    ];
    let (mut bytes, mut ends, mut delivers) = (Vec::new(), Vec::new(), Vec::new());
    for (frame, delivered) in frames {
        bytes.extend_from_slice(&framed(&frame));
        ends.push(bytes.len());
        delivers.push(delivered);
    }
    (bytes, ends, delivers)
}

/// What the frames that end at or before byte `cut` deliver.
fn delivered_by(cut: usize, ends: &[usize], delivers: &[Option<Got>]) -> Vec<Got> {
    ends.iter()
        .zip(delivers)
        .filter(|(end, _)| **end <= cut)
        .filter_map(|(_, d)| d.clone())
        .collect()
}

/// Accept one member connection as the sequencer would: `Join` in, `Welcome`
/// out.
fn accept_member(listener: &TcpListener) -> TcpStream {
    let (mut conn, _) = listener.accept().expect("accept");
    conn.set_nodelay(true).expect("nodelay");
    assert!(matches!(read_frame(&mut conn), Ok(UpFrame::Join { replica: MEMBER })));
    write_frame(&mut conn, &DownFrame::Welcome { member: MEMBER }).expect("welcome");
    conn
}

/// Receive with `RECV_TIMEOUT` until something other than a delivery comes
/// back; returns it and what was delivered before it.
fn drain(m: &TcpMember<String>) -> (Vec<Got>, GcsError) {
    let mut out = Vec::new();
    loop {
        match m.recv_timeout(RECV_TIMEOUT) {
            Ok(d) => out.push(got(d)),
            Err(e) => return (out, e),
        }
    }
}

/// The cuts worth making: every byte boundary of the small frames, and a
/// spread over the big one (which alone is longer than the read buffer).
fn cuts(bytes: &[u8], ends: &[usize]) -> Vec<usize> {
    let small = ends[ends.len() - 2] + 8;
    (1..small).chain((small..bytes.len()).step_by(1_499)).collect()
}

#[test]
fn a_stream_cut_anywhere_delivers_what_the_uncut_stream_does() {
    let (bytes, ends, delivers) = script();
    let uncut = delivered_by(bytes.len(), &ends, &delivers);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let group: TcpGroup<String> = TcpGroup::new(listener.local_addr().unwrap().to_string(), MEMBER);
    for cut in cuts(&bytes, &ends) {
        // The peer sends the first `cut` bytes, waits until the member has
        // timed out on them, sends the rest, and holds the connection.
        let (timed_out, resume) = mpsc::channel::<()>();
        let (done, hold) = mpsc::channel::<()>();
        thread::scope(|scope| {
            let (bytes, listener) = (&bytes, &listener);
            scope.spawn(move || {
                let mut conn = accept_member(listener);
                conn.write_all(&bytes[..cut]).expect("first piece");
                resume.recv().expect("member timed out");
                conn.write_all(&bytes[cut..]).expect("second piece");
                let _ = hold.recv();
            });
            let m = group.join_as(MEMBER).expect("join");
            let (before, e) = drain(&m);
            assert_eq!(e, GcsError::Timeout, "cut {cut}: a pause is not the end of the stream");
            assert_eq!(before, delivered_by(cut, &ends, &delivers), "cut {cut}: before the pause");
            timed_out.send(()).expect("peer alive");
            let mut all = before;
            let deadline = Instant::now() + Duration::from_secs(10);
            while all.len() < uncut.len() {
                assert!(Instant::now() < deadline, "cut {cut}: the rest never arrived: {all:?}");
                let (more, e) = drain(&m);
                assert_eq!(e, GcsError::Timeout, "cut {cut}");
                all.extend(more);
            }
            assert_eq!(all, uncut, "cut {cut}: lost, repeated or reordered");
            let t = m.transport();
            assert_eq!((t.frames_in, t.bytes_in), (ends.len() as u64, bytes.len() as u64));
            assert_eq!(t.decode_failures, 0);
            done.send(()).expect("peer alive");
        });
    }
}

#[test]
fn a_truncated_stream_ends_in_disconnected_after_its_whole_frames() {
    let (bytes, ends, delivers) = script();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let group: TcpGroup<String> = TcpGroup::new(listener.local_addr().unwrap().to_string(), MEMBER);
    for cut in cuts(&bytes, &ends) {
        thread::scope(|scope| {
            let (bytes, listener) = (&bytes, &listener);
            scope.spawn(move || {
                let mut conn = accept_member(listener);
                conn.write_all(&bytes[..cut]).expect("truncated stream");
            });
            let m = group.join_as(MEMBER).expect("join");
            let deadline = Instant::now() + Duration::from_secs(10);
            let mut all = Vec::new();
            let end = loop {
                assert!(Instant::now() < deadline, "cut {cut}: the stream never ended");
                let (more, e) = drain(&m);
                all.extend(more);
                if e != GcsError::Timeout {
                    break e;
                }
            };
            assert_eq!(end, GcsError::Disconnected, "cut {cut}");
            assert_eq!(all, delivered_by(cut, &ends, &delivers), "cut {cut}");
            assert_eq!(
                m.recv().map(got),
                Err(GcsError::Disconnected),
                "cut {cut}: dead stays dead"
            );
            assert!(m.handle().multicast_total(String::new()).is_err(), "cut {cut}: still sending");
        });
    }
}

#[test]
fn a_corrupt_frame_kills_the_endpoint() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let group: TcpGroup<String> = TcpGroup::new(listener.local_addr().unwrap().to_string(), MEMBER);
    // An unknown tag; a length no frame may have; an admin reply on a member
    // connection; a payload that is not a `String`.
    let not_utf8 = DownFrame::Fifo { sender: 1, payload: Bytes(vec![2, 0, 0, 0, 0xff, 0xfe]) };
    let streams: [(Vec<u8>, u64); 4] = [
        (vec![1, 0, 0, 0, 99], 0),
        (u32::MAX.to_le_bytes().to_vec(), 0),
        (framed(&DownFrame::Evicted), 0),
        (framed(&not_utf8), 1),
    ];
    for (stream, decode_failures) in streams {
        let (done, hold) = mpsc::channel::<()>();
        thread::scope(|scope| {
            let (stream, listener) = (&stream, &listener);
            scope.spawn(move || {
                let mut conn = accept_member(listener);
                conn.write_all(stream).expect("write");
                // The connection stays open: it is the frame that ends it.
                let _ = hold.recv();
            });
            let m = group.join_as(MEMBER).expect("join");
            assert_eq!(m.recv().map(got), Err(GcsError::Disconnected), "{stream:?}");
            assert_eq!(m.transport().decode_failures, decode_failures, "{stream:?}");
            done.send(()).expect("peer alive");
        });
    }
}

fn member_threads() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with("sirep-tcp-mem"))
        .collect()
}

/// Block a thread in `recv` on `m`'s idle socket, run `kill`, and require the
/// `recv` to come back `Disconnected` within two seconds of it.
fn blocked_recv_ends(what: &str, m: TcpMember<u64>, kill: impl FnOnce()) {
    let (blocked, is_blocked) = mpsc::channel();
    let (ended, has_ended) = mpsc::channel();
    thread::scope(|scope| {
        scope.spawn(move || {
            // The views so far are all there is to receive.
            while let Ok(d) = m.recv_timeout(Duration::from_millis(200)) {
                assert!(matches!(d, Delivery::ViewChange(_)), "{what}: {d:?}");
            }
            blocked.send(()).expect("main alive");
            ended.send(m.recv()).expect("main alive");
        });
        is_blocked.recv().expect("receiver alive");
        // Let the receiver get from the `send` into the socket read. (If it
        // has not, the test is weaker, not wrong.)
        thread::sleep(Duration::from_millis(50));
        let start = Instant::now();
        kill();
        let end = has_ended.recv_timeout(Duration::from_secs(2));
        assert!(
            matches!(end, Ok(Err(GcsError::Disconnected))),
            "{what}: {end:?} after {:?}",
            start.elapsed()
        );
    });
}

#[test]
fn a_blocked_recv_ends_when_the_endpoint_dies_whoever_kills_it() {
    let seq = Sequencer::spawn("127.0.0.1:0").expect("bind sequencer");
    let group: TcpGroup<u64> = TcpGroup::new(seq.addr().to_string(), 0);
    let join = |replica| group.join_as(replica).expect("join");
    assert_eq!(member_threads(), Vec::<String>::new(), "a member has no thread of its own");

    let m = join(0);
    let cast = m.handle();
    blocked_recv_ends("crash_self", m, || cast.crash_self());

    let m = join(1);
    let id = m.id();
    blocked_recv_ends("Group::crash", m, || group.crash(id));

    // `leave` is the endpoint's own: its owner calls it, so no `recv` of the
    // same endpoint can be blocked meanwhile — but the next one must not be.
    let m = join(2);
    m.leave();
    let end = std::iter::repeat_with(|| m.recv()).find_map(Result::err);
    assert_eq!(end, Some(GcsError::Disconnected), "leave");

    blocked_recv_ends("Sequencer::shutdown", join(3), || seq.shutdown());
    assert_eq!(member_threads(), Vec::<String>::new());
}
