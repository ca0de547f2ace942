//! The TCP tier's sequencer from tier-1: the sequenced log is the only queue
//! and a member is a cursor into it (DESIGN.md §14). Properties of that
//! structure, over real loopback sockets:
//!
//! - a member that joins under load is sent the log from index 0 and ends
//!   up with exactly the stream the older members have;
//! - a member that stops reading falls behind *alone*: its cursor lag is
//!   what `query_seq_stats` reports, and nobody else waits for it;
//! - the thread that sequences a frame sends it: members that keep up cost
//!   the writer threads nothing, a member that never reads can still
//!   multicast, one that reads in bursts is sent every frame, one that
//!   pauses does not hold up the others, and a stalled member's writer
//!   sleeps instead of polling;
//! - evicting a member ends its writer thread and drops what it still had
//!   in flight;
//! - a restarted replica is handed to clients only once it has replayed the
//!   log up to its own join, and — its schema being part of its
//!   configuration — applies what it replays;
//! - the sequencer's death is fail-stop for the group: commits in flight are
//!   answered, nodes stop being alive, clients end in an error, not a hang.
//! - the journals of nodes that share a sequencer are one history, and
//!   Def. 3 (1-copy-SI) holds over it.

use si_rep::core::{
    check_one_copy_si, history_from_journals, Cluster, ClusterConfig, Connection, Transport,
};
use si_rep::driver::{NodeServer, RemoteDriver};
use si_rep::gcs::{
    query_seq_stats, Cast, Delivery, GcsError, Group, Member, SeqStats, Sequencer, TcpGroup,
    TcpMember,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(20);
const STEP: Duration = Duration::from_millis(20);

/// The tests share one process, hence one thread table; they count the
/// sequencer writer threads in it and their context switches, so sequencers
/// run one at a time.
static ONE_SEQUENCER: Mutex<()> = Mutex::new(());

/// The sequencer to oneself — once the previous test's writers have gone:
/// they exit when their sequencer shuts down, not before it has returned.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    let one = ONE_SEQUENCER.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    poll_until("a previous sequencer's writers exit", || writers().0 == 0);
    one
}

/// This process's sequencer member writers (`comm` keeps the first 15 bytes
/// of "sirep-seq-writer"): how many there are, and how often they have gone
/// to sleep — voluntary context switches, summed.
fn writers() -> (usize, u64) {
    let mut total = (0, 0);
    for task in std::fs::read_dir("/proc/self/task").expect("procfs").flatten() {
        let comm = std::fs::read_to_string(task.path().join("comm")).unwrap_or_default();
        if comm.trim_end() != "sirep-seq-write" {
            continue;
        }
        // A thread that exits between the two reads counts with 0 switches.
        let status = std::fs::read_to_string(task.path().join("status")).unwrap_or_default();
        let switches = status.lines().find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"));
        total.0 += 1;
        total.1 += switches.and_then(|n| n.trim().parse::<u64>().ok()).unwrap_or(0);
    }
    total
}

fn poll_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + TIMEOUT;
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        thread::sleep(STEP);
    }
}

/// One entry of a member's delivery stream, comparable across members.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Entry {
    Total { seq: u64, sender: u64, msg: u64 },
    View(Vec<u64>),
}

/// Receive until the stream holds `totals` total-order deliveries and
/// `views` view changes.
fn collect(m: &TcpMember<u64>, totals: usize, views: usize) -> Vec<Entry> {
    let deadline = Instant::now() + TIMEOUT;
    let mut out = Vec::new();
    let (mut t, mut v) = (0, 0);
    while t < totals || v < views {
        assert!(Instant::now() < deadline, "stream ended early: {t}/{totals} totals, {v} views");
        match m.recv_timeout(STEP) {
            Ok(Delivery::TotalOrder { seq, sender, msg, .. }) => {
                t += 1;
                out.push(Entry::Total { seq, sender: sender.raw(), msg });
            }
            Ok(Delivery::ViewChange(view)) => {
                v += 1;
                out.push(Entry::View(view.members.iter().map(|m| m.raw()).collect()));
            }
            Ok(other) => panic!("unexpected delivery: {other:?}"),
            Err(_) => {}
        }
    }
    out
}

#[test]
fn joiner_under_load_receives_the_same_stream_from_seq_zero() {
    let _one = serial();
    let seq = Sequencer::spawn("127.0.0.1:0").expect("bind sequencer");
    let group: TcpGroup<u64> = TcpGroup::new(seq.addr().to_string(), 0);
    let a = group.join_as(0).expect("join");
    let b = group.join_as(1).expect("join");
    let stop = AtomicBool::new(false);
    let late = thread::scope(|scope| {
        for m in [&a, &b] {
            let (cast, stop) = (m.handle(), &stop);
            scope.spawn(move || {
                let mut k = cast.id().raw() << 32;
                while !stop.load(Ordering::Relaxed) {
                    cast.multicast_total(k).expect("multicast");
                    k += 1;
                    thread::yield_now();
                }
            });
        }
        // Join in the middle of the traffic, then let it run on.
        poll_until("traffic flows", || seq.sequenced() >= 300);
        let late = group.join_as(2).expect("join under load");
        let at_join = seq.sequenced();
        poll_until("traffic continued past the join", || seq.sequenced() >= at_join + 300);
        stop.store(true, Ordering::Relaxed);
        late
    });
    // Both senders have returned, so everything they sent is on its way to
    // the sequencer; wait for it to be sequenced.
    let sent = Group::transport(&group).frames_out;
    poll_until("every multicast is sequenced", || seq.sequenced() == sent);
    let totals = sent as usize;

    let streams: Vec<Vec<Entry>> = [&a, &b, &late].map(|m| collect(m, totals, 3)).into();
    // Gap-free and duplicate-free from sequence number 0 ...
    let seqs: Vec<u64> = streams[2]
        .iter()
        .filter_map(|e| match e {
            Entry::Total { seq, .. } => Some(*seq),
            Entry::View(_) => None,
        })
        .collect();
    assert_eq!(seqs, (0..sent).collect::<Vec<_>>());
    // ... and entry for entry what the members that were there all along got,
    // view changes at the same positions included.
    assert_eq!(streams[2], streams[0], "the joiner's stream differs from a's");
    assert_eq!(streams[1], streams[0], "b's stream differs from a's");
    assert_eq!(streams[0].len(), totals + 3);
    let joined_at = streams[0].iter().position(|e| matches!(e, Entry::View(v) if v.len() == 3));
    assert!(joined_at.is_some_and(|p| p > 300), "the join did not happen under load");
}

fn backlog_of(stats: &SeqStats, member: u64) -> u64 {
    stats.members.iter().find(|&&(m, _)| m == member).expect("member in stats").1
}

/// Receive `n` total-order deliveries at `m`, failing after `TIMEOUT`.
fn drain(m: &TcpMember<String>, n: usize) {
    let deadline = Instant::now() + TIMEOUT;
    let mut got = 0;
    while got < n {
        assert!(Instant::now() < deadline, "a reading member stopped receiving");
        if let Ok(Delivery::TotalOrder { .. }) = m.recv_timeout(STEP) {
            got += 1;
        }
    }
}

/// Multicast 64 KiB frames through `cast`, 64 a round, until member
/// `stalled` — which nobody receives from, and only `recv` reads a member's
/// socket — has a full socket and a cursor that stopped while the log kept
/// growing; `readers` receive all of it, every round. At most 256 MiB.
fn multicast_until_stalled(
    addr: &str,
    cast: &dyn Cast<String>,
    readers: &[&TcpMember<String>],
    stalled: u64,
) -> SeqStats {
    let payload = "x".repeat(64 << 10);
    let mut last_cursor = None;
    for _ in 0..64 {
        for _ in 0..64 {
            cast.multicast_total(payload.clone()).expect("multicast");
        }
        for m in readers {
            drain(m, 64);
        }
        let stats = query_seq_stats(addr).expect("stats");
        let cursor = stats.log_len - backlog_of(&stats, stalled);
        if backlog_of(&stats, stalled) > 64 && last_cursor == Some(cursor) {
            return stats;
        }
        last_cursor = Some(cursor);
    }
    panic!("256 MiB sent and the stalled member's socket never filled");
}

#[test]
fn stalled_member_falls_behind_alone_and_stats_report_its_cursor_lag() {
    let _one = serial();
    let seq = Sequencer::spawn("127.0.0.1:0").expect("bind sequencer");
    let addr = seq.addr().to_string();
    let group: TcpGroup<String> = TcpGroup::new(addr.clone(), 0);
    let a = group.join_as(0).expect("join");
    let b = group.join_as(1).expect("join");
    let stalled = group.join_as(2).expect("join");
    let stalled_id = stalled.id().raw();

    // "The other members keep receiving" while the stalled one's cursor
    // stops and the log keeps growing.
    let stats = multicast_until_stalled(&addr, &*a.handle(), &[&a, &b], stalled_id);
    assert_eq!(stats.log_len, stats.next_seq + 3, "the log is the totals plus three join views");
    assert_eq!(backlog_of(&stats, a.id().raw()), 0, "a is caught up: {stats:?}");
    assert_eq!(backlog_of(&stats, b.id().raw()), 0, "b is caught up: {stats:?}");
    let lag = backlog_of(&stats, stalled_id);
    assert_eq!(stats.backlog(), lag, "the whole backlog is the stalled member's");

    // The member resumes: it is sent the log from where its cursor stood —
    // which is everything, in order, from index 0 — and the lag drains to 0.
    let mut next_seq = 0;
    for delivered in 0..stats.log_len {
        match stalled.recv_timeout(TIMEOUT).expect("log frame") {
            Delivery::TotalOrder { seq, .. } => {
                assert_eq!(seq, next_seq, "gap or duplicate at log frame {delivered}");
                next_seq += 1;
            }
            Delivery::ViewChange(_) => {}
            other => panic!("unexpected delivery: {other:?}"),
        }
        if delivered % 256 == 0 {
            // backlog = log_len − cursor, and the cursor is never behind
            // what the member has been handed.
            let s = query_seq_stats(&addr).expect("stats");
            assert!(backlog_of(&s, stalled_id) <= s.log_len - delivered, "{s:?} at {delivered}");
        }
    }
    assert_eq!(next_seq, stats.next_seq);
    let s = query_seq_stats(&addr).expect("stats");
    assert_eq!((s.log_len, s.backlog()), (stats.log_len, 0), "delivered everything: {s:?}");
}

/// Members that keep up cost the writer threads nothing: the connection
/// thread that reads a multicast puts it on every member's socket itself.
/// (Before, every multicast woke every member's writer: ≈ 3 per multicast.)
#[test]
fn a_multicast_to_members_that_keep_up_wakes_no_writer() {
    const MULTICASTS: u64 = 1_000;
    let _one = serial();
    let seq = Sequencer::spawn("127.0.0.1:0").expect("bind sequencer");
    let group: TcpGroup<u64> = TcpGroup::new(seq.addr().to_string(), 0);
    let members = [0, 1, 2].map(|replica| group.join_as(replica).expect("join"));
    for m in &members {
        collect(m, 0, 3);
    }
    let (threads, before) = writers();
    assert_eq!(threads, 3, "one writer per member");

    let cast = members[0].handle();
    for k in 0..MULTICASTS {
        cast.multicast_total(k).expect("multicast");
        for m in &members {
            match m.recv_timeout(TIMEOUT) {
                Ok(Delivery::TotalOrder { msg, .. }) => assert_eq!(msg, k),
                other => panic!("expected multicast {k}, got {other:?}"),
            }
        }
    }
    let per_multicast = (writers().1 - before) as f64 / MULTICASTS as f64;
    eprintln!("writer wake-ups per multicast: {per_multicast}");
    assert!(per_multicast <= 0.05, "{per_multicast} writer wake-ups per multicast");
}

/// A member that never reads keeps multicasting: the connection thread that
/// reads its frames cannot deliver them back to it, and must not wait for it
/// — the sequencer's send timeout hands the member to its writer. (Inline
/// writes without the timeout hang this test: that thread blocks on the full
/// socket, stops reading the member's upstream, and the multicast blocks.)
#[test]
fn a_member_that_never_reads_can_multicast_and_everyone_else_receives_it() {
    let _one = serial();
    let seq = Sequencer::spawn("127.0.0.1:0").expect("bind sequencer");
    let addr = seq.addr().to_string();
    let group: TcpGroup<String> = TcpGroup::new(addr.clone(), 0);
    let a = group.join_as(0).expect("join");
    let b = group.join_as(1).expect("join");
    let mute = group.join_as(2).expect("join");
    let mute_id = mute.id().raw();

    let stats = multicast_until_stalled(&addr, &*mute.handle(), &[&a, &b], mute_id);
    assert_eq!(stats.backlog(), backlog_of(&stats, mute_id), "a and b are caught up: {stats:?}");
}

/// Frames past a cursor always have an owner: three members multicast for
/// 2 s while a fourth reads in bursts with pauses longer than the send
/// timeout, so its socket keeps passing between inline writers and its
/// writer. Nothing may be stranded on the way: all four streams are the same,
/// gap-free, and no cursor is left behind.
#[test]
fn a_member_reading_in_bursts_is_sent_every_frame_and_no_cursor_is_left_behind() {
    let _one = serial();
    let seq = Sequencer::spawn("127.0.0.1:0").expect("bind sequencer");
    let addr = seq.addr().to_string();
    let group: TcpGroup<String> = TcpGroup::new(addr.clone(), 0);
    let members = [0, 1, 2, 3].map(|replica| group.join_as(replica).expect("join"));
    let ids = members.each_ref().map(|m| m.id().raw());
    let casts: Vec<_> = members[..3].iter().map(Member::handle).collect();
    let (_, before) = writers();

    // How many total-order frames to collect, once the senders have stopped.
    let totals = AtomicU64::new(u64::MAX);
    let streams = thread::scope(|scope| {
        let readers: Vec<_> = members
            .into_iter()
            .map(|m| {
                let (totals, bursty) = (&totals, m.id().raw() == ids[3]);
                scope.spawn(move || {
                    let mut out = Vec::new();
                    while (out.len() as u64) < totals.load(Ordering::Relaxed).saturating_add(4) {
                        match m.recv_timeout(STEP) {
                            Ok(Delivery::TotalOrder { seq, sender, msg, .. }) => {
                                out.push((seq, sender.raw(), msg[..16].to_string()));
                            }
                            Ok(Delivery::ViewChange(v)) => {
                                out.push((u64::MAX, v.id, String::new()));
                            }
                            Ok(other) => panic!("unexpected delivery: {other:?}"),
                            // Caught up: pause, longer than `STALL`.
                            Err(GcsError::Timeout) if bursty => {
                                thread::sleep(Duration::from_millis(10));
                            }
                            Err(GcsError::Timeout) => {}
                            Err(e) => panic!("{e:?}"),
                        }
                    }
                    // The member leaves once every reader is done.
                    (m, out)
                })
            })
            .collect();
        let senders: Vec<_> = casts
            .iter()
            .map(|cast| {
                scope.spawn(move || {
                    let start = Instant::now();
                    let mut k = 0u64;
                    while start.elapsed() < Duration::from_secs(2) {
                        for _ in 0..8 {
                            let msg = format!("{k:016}{:512}", "");
                            cast.multicast_total(msg).expect("multicast");
                            k += 1;
                        }
                        thread::sleep(Duration::from_millis(1));
                    }
                })
            })
            .collect();
        senders.into_iter().for_each(|s| s.join().expect("sender"));
        // Everything the senders sent is on its way to the sequencer.
        let sent = Group::transport(&group).frames_out;
        poll_until("every multicast is sequenced", || seq.sequenced() == sent);
        totals.store(seq.sequenced(), Ordering::Relaxed);
        readers.into_iter().map(|r| r.join().expect("reader")).collect::<Vec<_>>()
    });
    let (_members, streams): (Vec<_>, Vec<_>) = streams.into_iter().unzip();

    let seqs: Vec<u64> = streams[3].iter().map(|e| e.0).filter(|&s| s != u64::MAX).collect();
    assert_eq!(seqs, (0..seq.sequenced()).collect::<Vec<_>>(), "gap or duplicate");
    for (i, stream) in streams.iter().enumerate() {
        assert!(stream == &streams[3], "member {i}'s stream differs from the bursty member's");
    }
    // Each sender's messages arrive in the order it sent them.
    for sender in &ids[..3] {
        let ks: Vec<&str> = streams[3]
            .iter()
            .filter(|e| e.1 == *sender && e.0 != u64::MAX)
            .map(|e| e.2.as_str())
            .collect();
        let want: Vec<String> = (0..ks.len()).map(|k| format!("{k:016}")).collect();
        assert!(ks == want, "member {sender}'s multicasts were delivered out of order");
    }
    let stats = query_seq_stats(&addr).expect("stats");
    assert_eq!(stats.backlog(), 0, "a cursor was left behind: {stats:?}");
    let handoffs = writers().1 - before;
    eprintln!("{} frames, {handoffs} writer wake-ups", seqs.len());
    assert!(handoffs > 0, "the bursty member never stalled a write: this run shows nothing");
}

/// A member that stops reading delays the others by at most `STALL` per time
/// its socket fills, not for as long as it does not read: two members stream
/// into the group while a third reads for 50 ms and pauses for 300 ms, and a
/// fourth's round trips — multicast, then receive it back — stay far below
/// the pause. (Inline writes without the timeout wait out every pause.)
#[test]
fn a_member_that_pauses_does_not_hold_up_the_others() {
    const PAUSE: Duration = Duration::from_millis(300);
    let _one = serial();
    let seq = Sequencer::spawn("127.0.0.1:0").expect("bind sequencer");
    let group: TcpGroup<String> = TcpGroup::new(seq.addr().to_string(), 0);
    let [probe, a, b, pausing] = [0, 1, 2, 3].map(|replica| group.join_as(replica).expect("join"));
    let (_, before) = writers();
    let stop = AtomicBool::new(false);
    let (mut rtts, pauses) = thread::scope(|scope| {
        let stop = &stop;
        for m in [a, b] {
            let cast = m.handle();
            let sender = scope.spawn(move || {
                let msg = format!("{:4096}", "");
                while !stop.load(Ordering::Relaxed) {
                    for _ in 0..8 {
                        cast.multicast_total(msg.clone()).expect("multicast");
                    }
                    thread::sleep(Duration::from_millis(1));
                }
            });
            // Read until the sender is done: dropping `m` marks its
            // connection crashed, which would fail a burst still in flight.
            scope.spawn(move || {
                while !sender.is_finished() {
                    let _ = m.recv_timeout(STEP);
                }
            });
        }
        let pauses = scope.spawn(move || {
            let mut pauses = 0;
            while !stop.load(Ordering::Relaxed) {
                let reading = Instant::now();
                while reading.elapsed() < Duration::from_millis(50) {
                    let _ = pausing.recv_timeout(STEP);
                }
                thread::sleep(PAUSE);
                pauses += 1;
            }
            pauses
        });
        let (cast, start, mut rtts) = (probe.handle(), Instant::now(), Vec::new());
        while start.elapsed() < Duration::from_secs(2) {
            let sent = Instant::now();
            cast.multicast_total("probe".into()).expect("multicast");
            loop {
                match probe.recv_timeout(TIMEOUT).expect("the probe's own multicast") {
                    Delivery::TotalOrder { sender, .. } if sender == probe.id() => break,
                    _ => {}
                }
            }
            rtts.push(sent.elapsed());
        }
        stop.store(true, Ordering::Relaxed);
        (rtts, pauses.join().expect("pausing reader"))
    });
    let handoffs = writers().1 - before;
    rtts.sort_unstable();
    let slowest = *rtts.last().expect("round trips");
    eprintln!(
        "{} round trips: p50 {:?}, p99 {:?}, slowest {slowest:?}; {pauses} pauses, {handoffs} writer wake-ups",
        rtts.len(),
        rtts[rtts.len() / 2],
        rtts[rtts.len() * 99 / 100],
    );
    assert!(pauses >= 4 && handoffs > 0, "the pausing member never stalled a write");
    assert!(slowest < PAUSE / 2, "a round trip took {slowest:?}: it waited for a pause");
}

/// A member that stops reading costs its writer one sleep, not a wake-up per
/// `STALL`: while the writer owns the socket it blocks on it, timeout cleared.
#[test]
fn a_stalled_members_writer_sleeps_instead_of_polling() {
    let _one = serial();
    let seq = Sequencer::spawn("127.0.0.1:0").expect("bind sequencer");
    let addr = seq.addr().to_string();
    let group: TcpGroup<String> = TcpGroup::new(addr.clone(), 0);
    let a = group.join_as(0).expect("join");
    let stalled = group.join_as(1).expect("join");
    let cast = a.handle();
    multicast_until_stalled(&addr, &*cast, &[&a], stalled.id().raw());

    let (_, before) = writers();
    let start = Instant::now();
    while start.elapsed() < Duration::from_secs(1) {
        cast.multicast_total("y".into()).expect("multicast");
        drain(&a, 1);
    }
    let switches = writers().1 - before;
    assert!(switches <= 5, "the writers went to sleep {switches} times in 1 s");
}

#[test]
fn evicted_members_writer_exits_and_its_frames_in_flight_are_dropped() {
    let _one = serial();
    let seq = Sequencer::spawn("127.0.0.1:0").expect("bind sequencer");
    let group: TcpGroup<u64> = TcpGroup::new(seq.addr().to_string(), 0);
    let a = group.join_as(0).expect("join");
    let b = group.join_as(1).expect("join");
    poll_until("both writers run", || writers().0 == 2);

    // b multicasts without pause; it is evicted in mid-stream, so some of
    // its frames are on the socket, unread, when the sequencer drops it.
    let stop = AtomicBool::new(false);
    let cast = b.handle();
    let stream = thread::scope(|scope| {
        let stop = &stop;
        scope.spawn(move || {
            let mut k = 0u64;
            while !stop.load(Ordering::Relaxed) {
                // Fails once b has noticed its eviction; keep trying.
                let _ = cast.multicast_total(k);
                k += 1;
            }
        });
        poll_until("b's traffic flows", || seq.sequenced() >= 200);
        group.crash(b.id());
        let evicted_at = seq.sequenced();
        // Everything b still sends now is in flight to a sequencer that no
        // longer knows it.
        thread::sleep(Duration::from_millis(100));
        stop.store(true, Ordering::Relaxed);
        assert_eq!(seq.sequenced(), evicted_at, "a frame of the evicted member was sequenced");
        collect(&a, evicted_at as usize, 3)
    });
    // a got a gap-free prefix of b's messages, then the view without b, and
    // nothing after it.
    let msgs: Vec<u64> = stream
        .iter()
        .filter_map(|e| match e {
            Entry::Total { sender, msg, .. } => {
                assert_eq!(*sender, b.id().raw(), "only b multicast");
                Some(*msg)
            }
            Entry::View(_) => None,
        })
        .collect();
    assert_eq!(msgs, (0..msgs.len() as u64).collect::<Vec<_>>());
    assert_eq!(stream.last(), Some(&Entry::View(vec![a.id().raw()])), "crash view comes last");
    assert!(a.recv_timeout(Duration::from_millis(200)).is_err(), "delivery after the crash view");
    poll_until("b's endpoint notices the eviction", || b.handle().multicast_total(0).is_err());

    poll_until("b's writer thread exits", || writers().0 == 1);
    drop(seq);
    poll_until("shutdown ends the last writer", || writers().0 == 0);
}

/// A one-replica cluster on the TCP tier, its schema part of its config.
/// It tracks reads, so its journal holds its part of Def. 3's history.
fn tcp_node(seq: &Sequencer, replica: u64) -> Cluster {
    let cfg = ClusterConfig::builder()
        .transport(Transport::Tcp { sequencer: seq.addr().to_string() })
        .first_replica(replica)
        .track_history(true)
        .schema("CREATE TABLE kv (k INT, v INT, PRIMARY KEY (k))");
    Cluster::try_new(cfg.build()).expect("join")
}

/// Def. 3 on the TCP tier: three one-replica clusters, each with its own
/// auditor and journal clock as separate processes would have, share a
/// sequencer and run conflicting updates and reads; their journals,
/// concatenated, are one history the checker decides.
#[test]
fn one_copy_si_is_decided_from_the_journals_of_separate_nodes() {
    let _one = serial();
    let seq = Sequencer::spawn("127.0.0.1:0").expect("bind sequencer");
    let nodes = [0, 1, 2].map(|replica| tcp_node(&seq, replica));
    let mut s = nodes[0].session(0);
    for k in 0..4 {
        s.execute(&format!("INSERT INTO kv VALUES ({k}, 0)")).expect("insert");
    }
    s.commit().expect("commit");
    poll_until("every node has the rows", || {
        nodes.iter().all(|n| n.node(0).database().table_len("kv") == 4)
    });
    thread::scope(|scope| {
        for (i, node) in nodes.iter().enumerate() {
            scope.spawn(move || {
                let mut s = node.session(0);
                for n in 0..30 {
                    let k = (i + n) % 4;
                    let mut txn = || {
                        s.execute(&format!("SELECT v FROM kv WHERE k = {}", (k + 1) % 4))?;
                        if n % 3 != 0 {
                            s.execute(&format!("UPDATE kv SET v = v + 1 WHERE k = {k}"))?;
                        }
                        s.commit()
                    };
                    if txn().is_err() {
                        s.rollback();
                    }
                }
            });
        }
    });
    poll_until("every node has applied every writeset", || {
        let last = nodes[0].node(0).last_validated();
        nodes.iter().all(|n| n.node(0).last_validated() == last && n.node(0).queue_len() == 0)
    });
    let journals: Vec<_> = nodes.iter().flat_map(Cluster::journal_events).collect();
    assert!(nodes.iter().all(|n| n.node(0).journal.dropped() == 0), "a journal dropped events");
    let (specs, exec) =
        history_from_journals(&journals).expect("the journals hold the whole history");
    // Every transaction but the setup read a row: the readsets travelled.
    assert_eq!(specs.values().filter(|t| t.readset.is_empty()).count(), 1, "{specs:?}");
    let updates = specs.values().filter(|t| t.is_update()).count();
    assert!(
        updates > 1 && updates < specs.len(),
        "{updates} updates of {} transactions",
        specs.len()
    );
    check_one_copy_si(&specs, &exec).unwrap_or_else(|v| panic!("1-copy-SI violated on TCP: {v}"));

    drop((nodes, seq));
    poll_until("shutdown ends the writers", || writers().0 == 0);
}

/// A joiner replays the sequenced log from index 0. Until it reaches its own
/// join view its `lastvalidated` is behind the group's prune watermark, and a
/// transaction certified there could pass against entries already pruned —
/// so a begin on a restarted replica waits until the replay has caught up.
#[test]
fn restarted_replica_begins_nothing_before_it_has_caught_up() {
    let _one = serial();
    let seq = Sequencer::spawn("127.0.0.1:0").expect("bind sequencer");
    let start = |replica: u64| tcp_node(&seq, replica);
    let survivor = start(1);
    let mut s = survivor.session(0);
    let mut commit = |k: u64| {
        s.execute(&format!("INSERT INTO kv VALUES ({k}, 0)")).expect("insert");
        s.commit().expect("commit");
    };
    let first = start(0);
    (0..150).for_each(&mut commit);
    drop(first);
    (150..300).for_each(&mut commit);

    // The replay starts at the join, appliers running: the schema has to be
    // in the database by then, which is why it comes through the constructor.
    let again = start(0);
    let mut s0 = again.session(0);
    s0.execute("INSERT INTO kv VALUES (300, 0)").expect("insert");
    assert_eq!(s0.xact_id().expect("open").incarnation(), 1, "second life of replica 0");
    let behind = survivor.node(0).last_validated().raw() - again.node(0).last_validated().raw();
    assert_eq!(behind, 0, "a transaction began while the replica was still replaying");
    s0.commit().expect("commit");
    poll_until("the restarted replica has applied the whole log", || {
        again.node(0).database().table_len("kv") == 301
    });
    assert!(again.audit_is_clean(), "{:?}", again.audit_violations());
    assert!(survivor.audit_is_clean(), "{:?}", survivor.audit_violations());

    drop((again, survivor, seq));
    poll_until("shutdown ends the writers", || writers().0 == 0);
}

/// The sequencer dies under load. Every node's delivery stream ends, so every
/// node fail-stops: commits already multicast are answered, the clients go
/// through §5.4 resolution, find nobody who can tell, and end in an error.
#[test]
fn sequencer_death_fail_stops_every_node_and_no_client_hangs() {
    let _one = serial();
    let seq = Sequencer::spawn("127.0.0.1:0").expect("bind sequencer");
    let nodes = [0, 1].map(|replica| Arc::new(tcp_node(&seq, replica)));
    let servers = nodes.each_ref().map(|n| NodeServer::spawn("127.0.0.1:0", n.clone(), 0).unwrap());
    let addrs: Vec<String> = servers.iter().map(|s| s.addr().to_string()).collect();
    let commits = std::sync::atomic::AtomicU64::new(0);
    let (ended_tx, ended_rx) = std::sync::mpsc::channel();
    thread::scope(|scope| {
        // Commits back to back from four clients: at any instant some of them
        // are parked between their multicast and its delivery.
        for client in 0..4u64 {
            let (addrs, commits, ended_tx) = (addrs.clone(), &commits, ended_tx.clone());
            scope.spawn(move || {
                let driver = RemoteDriver::new(addrs);
                let mut conn = driver.connect().expect("connect");
                let error = (0..).find_map(|i: u64| {
                    conn.execute(&format!("INSERT INTO kv VALUES ({}, 0)", client << 32 | i))
                        .and_then(|_| conn.commit())
                        .map(|()| commits.fetch_add(1, Ordering::Relaxed))
                        .err()
                });
                ended_tx.send(error).expect("report");
            });
        }
        poll_until("commits flow", || commits.load(Ordering::Relaxed) >= 200);
        seq.shutdown();
        for _ in 0..4 {
            let error = ended_rx.recv_timeout(Duration::from_secs(10));
            assert!(error.is_ok(), "a client was still waiting 10 s after the sequencer died");
        }
    });
    poll_until("both nodes have fail-stopped", || nodes.iter().all(|n| !n.node(0).is_alive()));

    drop((servers, nodes, seq));
    poll_until("shutdown ends the writers", || writers().0 == 0);
}
