//! Transport conformance suite: the GCS contract (total order, uniform
//! reliable delivery, view synchrony — see [`crate::traits`]) exercised
//! through the trait objects only, and run against **every** backend.
//!
//! These tests are deliberately weaker than `group_tests.rs` where the
//! contract allows a networked backend latitude the sim tier doesn't need:
//!
//! - sequence numbers are asserted *consecutive and increasing*, not
//!   zero-based — the absolute origin is not contractual;
//! - a crashed member's `multicast_total` must fail *eventually* (a
//!   networked backend learns of its eviction asynchronously), not on the
//!   very next call;
//! - uniform delivery asserts the survivors deliver an identical **prefix**
//!   of the crashed sender's submissions, all before the crash view — the
//!   "not at all" arm lets a fire-and-forget transport drop in-flight
//!   tails, where the sim tier delivers everything sent before the crash.
//! - `Group::in_flight` is **per-process** on the TCP backend: it sums the
//!   pending-send gauges of the endpoints *this handle* created (the sim
//!   tier counts group-wide, because it owns every queue; a TCP member
//!   queues nothing), and its high-water mark is the max over endpoints
//!   rather than a true group-wide concurrent peak —
//!   `tcp_only::in_flight_gauge_is_honest` pins it.
//!
//! Sim-only semantics (simulated latency, deterministic faults, synchronous
//! sequencing) stay in `group_tests.rs`.

use crate::group::GroupConfig;
use crate::tcp::{Sequencer, TcpGroup};
use crate::traits::{Delivery, GcsError, Group, Member, View};
use crate::SimGroup;
use sirep_common::MemberId;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Poll interval while waiting for asynchronous effects.
const STEP: Duration = Duration::from_millis(50);
/// Per-assertion deadline; generous because the TCP backend runs real
/// sockets on shared CI machines.
const TIMEOUT: Duration = Duration::from_secs(10);

/// One backend under test. Holding the struct keeps backend-owned services
/// (the TCP sequencer) alive for the duration of the test.
struct Backend {
    group: Arc<dyn Group<u64>>,
    _seq: Option<Sequencer>,
}

fn sim() -> Backend {
    Backend { group: Arc::new(SimGroup::new(GroupConfig::instant())), _seq: None }
}

fn tcp() -> Backend {
    let seq = Sequencer::spawn("127.0.0.1:0").expect("bind sequencer");
    let group = TcpGroup::<u64>::new(seq.addr().to_string(), 0);
    Backend { group: Arc::new(group), _seq: Some(seq) }
}

/// Receive until a view with exactly `n` members arrives, discarding
/// everything else. Only for membership phases where no payload traffic is
/// outstanding.
fn await_members(m: &dyn Member<u64>, n: usize) -> View {
    let deadline = Instant::now() + TIMEOUT;
    loop {
        assert!(Instant::now() < deadline, "no view with {n} members within {TIMEOUT:?}");
        match m.recv_timeout(STEP) {
            Ok(Delivery::ViewChange(v)) if v.members.len() == n => return v,
            Ok(_) | Err(GcsError::Timeout) => {}
            Err(e) => panic!("recv failed while awaiting view: {e}"),
        }
    }
}

/// Collect the next `n` total-order deliveries as `(seq, sender, msg)`,
/// skipping view changes and FIFOs.
fn collect_total(m: &dyn Member<u64>, n: usize) -> Vec<(u64, MemberId, u64)> {
    let deadline = Instant::now() + TIMEOUT;
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        assert!(
            Instant::now() < deadline,
            "only {} of {n} total-order deliveries within {TIMEOUT:?}",
            out.len()
        );
        match m.recv_timeout(STEP) {
            Ok(Delivery::TotalOrder { seq, sender, msg, .. }) => out.push((seq, sender, msg)),
            Ok(_) | Err(GcsError::Timeout) => {}
            Err(e) => panic!("recv failed while collecting: {e}"),
        }
    }
    out
}

/// Collect the next `n` FIFO deliveries as `(sender, msg)`.
fn collect_fifo(m: &dyn Member<u64>, n: usize) -> Vec<(MemberId, u64)> {
    let deadline = Instant::now() + TIMEOUT;
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        assert!(
            Instant::now() < deadline,
            "only {} of {n} fifo deliveries within {TIMEOUT:?}",
            out.len()
        );
        match m.recv_timeout(STEP) {
            Ok(Delivery::Fifo { sender, msg }) => out.push((sender, msg)),
            Ok(_) | Err(GcsError::Timeout) => {}
            Err(e) => panic!("recv failed while collecting: {e}"),
        }
    }
    out
}

/// Everything a member delivers up to (and including) the first view that
/// no longer contains `gone`, plus a short quiet-period drain afterwards to
/// catch contract-violating stragglers.
fn collect_until_member_gone(m: &dyn Member<u64>, gone: MemberId) -> Vec<Delivery<u64>> {
    let deadline = Instant::now() + TIMEOUT;
    let mut out = Vec::new();
    loop {
        assert!(Instant::now() < deadline, "no view without {gone:?} within {TIMEOUT:?}");
        match m.recv_timeout(STEP) {
            Ok(d) => {
                let done = matches!(&d, Delivery::ViewChange(v) if !v.contains(gone));
                out.push(d);
                if done {
                    break;
                }
            }
            Err(GcsError::Timeout) => {}
            Err(e) => panic!("recv failed: {e}"),
        }
    }
    let quiet_until = Instant::now() + Duration::from_millis(300);
    while Instant::now() < quiet_until {
        if let Ok(d) = m.recv_timeout(STEP) {
            out.push(d);
        }
    }
    out
}

/// Sequence numbers must be strictly consecutive (total order with no
/// gaps); the origin is backend-specific.
fn assert_consecutive(stream: &[(u64, MemberId, u64)]) {
    for pair in stream.windows(2) {
        assert_eq!(pair[1].0, pair[0].0 + 1, "sequence gap: {pair:?}");
    }
}

// ---------------------------------------------------------------------------
// The conformance tests proper. Each takes an already-constructed backend;
// the macros at the bottom instantiate every test for every backend.
// ---------------------------------------------------------------------------

fn total_order_is_identical_across_members(b: Backend) {
    let members: Vec<_> = (0..3).map(|_| b.group.join().expect("join")).collect();
    for m in &members {
        await_members(m.as_ref(), 3);
    }
    for (i, m) in members.iter().enumerate() {
        let h = m.handle();
        for k in 0..10u64 {
            h.multicast_total(i as u64 * 100 + k).expect("multicast");
        }
    }
    let streams: Vec<_> = members.iter().map(|m| collect_total(m.as_ref(), 30)).collect();
    for s in &streams[1..] {
        assert_eq!(s, &streams[0], "members disagree on the total order");
    }
    assert_consecutive(&streams[0]);
    // Per-sender messages appear in submission order within the total order.
    for (i, m) in members.iter().enumerate() {
        let mine: Vec<u64> = streams[0]
            .iter()
            .filter(|&&(_, sender, _)| sender == m.id())
            .map(|&(_, _, msg)| msg)
            .collect();
        let expect: Vec<u64> = (0..10).map(|k| i as u64 * 100 + k).collect();
        assert_eq!(mine, expect, "sender {i}'s submission order not preserved");
    }
}

fn fifo_preserves_per_sender_order(b: Backend) {
    let a = b.group.join().expect("join");
    let c = b.group.join().expect("join");
    await_members(a.as_ref(), 2);
    await_members(c.as_ref(), 2);
    let (ha, hc) = (a.handle(), c.handle());
    for k in 0..10u64 {
        ha.multicast_fifo(k).expect("fifo");
        hc.multicast_fifo(100 + k).expect("fifo");
    }
    for m in [&a, &c] {
        let got = collect_fifo(m.as_ref(), 20);
        for sender in [a.id(), c.id()] {
            let from: Vec<u64> =
                got.iter().filter(|&&(s, _)| s == sender).map(|&(_, msg)| msg).collect();
            assert_eq!(from.len(), 10);
            assert!(from.windows(2).all(|w| w[0] < w[1]), "per-sender order violated: {from:?}");
        }
    }
}

fn view_changes_on_join_and_crash(b: Backend) {
    let a = b.group.join().expect("join");
    let v1 = await_members(a.as_ref(), 1);
    assert!(v1.contains(a.id()));

    let c = b.group.join().expect("join");
    let va = await_members(a.as_ref(), 2);
    let vc = await_members(c.as_ref(), 2);
    assert_eq!(va.members, vc.members, "members disagree on the join view");
    assert!(va.contains(a.id()) && va.contains(c.id()));

    b.group.crash(c.id());
    let v3 = await_members(a.as_ref(), 1);
    assert!(v3.contains(a.id()) && !v3.contains(c.id()));

    // The group handle converges to the same membership.
    let deadline = Instant::now() + TIMEOUT;
    loop {
        let v = b.group.view();
        if v.members == vec![a.id()] {
            break;
        }
        assert!(Instant::now() < deadline, "group view never converged: {v:?}");
        thread::sleep(STEP);
    }
}

fn crashed_member_eventually_cannot_multicast(b: Backend) {
    let a = b.group.join().expect("join");
    let c = b.group.join().expect("join");
    await_members(a.as_ref(), 2);
    await_members(c.as_ref(), 2);
    b.group.crash(c.id());
    // A networked backend learns of its own eviction asynchronously; the
    // contract is that multicasts *eventually* fail, and an Err guarantees
    // non-delivery.
    let h = c.handle();
    let deadline = Instant::now() + TIMEOUT;
    loop {
        if h.multicast_total(999).is_err() {
            break;
        }
        assert!(Instant::now() < deadline, "crashed member still multicasting after {TIMEOUT:?}");
        thread::sleep(STEP);
    }
    // And it stays failed.
    assert!(h.multicast_total(1000).is_err());
}

fn uniform_delivery_is_a_prefix_before_the_crash_view(b: Backend) {
    let a = b.group.join().expect("join");
    let c = b.group.join().expect("join");
    let x = b.group.join().expect("join");
    for m in [&a, &c, &x] {
        await_members(m.as_ref(), 3);
    }
    let h = x.handle();
    for k in 0..50u64 {
        h.multicast_total(k).expect("multicast");
    }
    h.crash_self();

    let sa = collect_until_member_gone(a.as_ref(), x.id());
    let sc = collect_until_member_gone(c.as_ref(), x.id());
    for stream in [&sa, &sc] {
        let crash_at = stream
            .iter()
            .position(|d| matches!(d, Delivery::ViewChange(v) if !v.contains(x.id())))
            .expect("crash view delivered");
        // Nothing from the crashed sender after its crash view: "before the
        // crash view, or not at all".
        for d in &stream[crash_at..] {
            if let Delivery::TotalOrder { sender, .. } = d {
                assert_ne!(*sender, x.id(), "delivery from crashed member after its crash view");
            }
        }
        // What was delivered is a prefix of the submission order.
        let got: Vec<u64> = stream
            .iter()
            .filter_map(|d| match d {
                Delivery::TotalOrder { sender, msg, .. } if *sender == x.id() => Some(*msg),
                _ => None,
            })
            .collect();
        let expect: Vec<u64> = (0..got.len() as u64).collect();
        assert_eq!(got, expect, "survivor saw a non-prefix of the crashed sender's submissions");
    }
    // Uniformity: both survivors delivered the *same* prefix.
    let count = |s: &[Delivery<u64>]| {
        s.iter()
            .filter(|d| matches!(d, Delivery::TotalOrder { sender, .. } if *sender == x.id()))
            .count()
    };
    assert_eq!(count(&sa), count(&sc), "survivors disagree on the delivered prefix");
}

fn leave_produces_a_view_change(b: Backend) {
    let a = b.group.join().expect("join");
    let c = b.group.join().expect("join");
    await_members(a.as_ref(), 2);
    await_members(c.as_ref(), 2);
    c.leave();
    let v = await_members(a.as_ref(), 1);
    assert!(v.contains(a.id()) && !v.contains(c.id()));
}

fn handles_multicast_from_other_threads(b: Backend) {
    let a = b.group.join().expect("join");
    let c = b.group.join().expect("join");
    await_members(a.as_ref(), 2);
    await_members(c.as_ref(), 2);
    let workers: Vec<_> = (0..3u64)
        .map(|t| {
            let h = a.handle();
            thread::spawn(move || {
                for k in 0..10u64 {
                    h.multicast_total(t * 1000 + k).expect("multicast");
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker");
    }
    let sa = collect_total(a.as_ref(), 30);
    let sc = collect_total(c.as_ref(), 30);
    assert_eq!(sa, sc, "threaded multicasts broke total-order agreement");
    assert_consecutive(&sa);
    let mut msgs: Vec<u64> = sa.iter().map(|&(_, _, msg)| msg).collect();
    msgs.sort_unstable();
    let mut expect: Vec<u64> =
        (0..3u64).flat_map(|t| (0..10u64).map(move |k| t * 1000 + k)).collect();
    expect.sort_unstable();
    assert_eq!(msgs, expect);
}

/// Views are self-describing: a member id is `(replica, incarnation)`, so
/// what a crash dropped and what a re-join added is read off the views each
/// survivor delivers — no backend-side table, no counting.
fn views_name_the_incarnation_a_crash_and_a_rejoin_touch(b: Backend) {
    let a = b.group.join().expect("join");
    let c = b.group.join().expect("join");
    let first = b.group.join_as(7).expect("join");
    assert_eq!(first.id(), MemberId::of(7, 0));
    let full: Vec<View> = [&a, &c].map(|m| await_members(m.as_ref(), 3)).into();
    await_members(first.as_ref(), 3);
    b.group.crash(first.id());
    for (survivor, before) in [&a, &c].into_iter().zip(full) {
        let after = await_members(survivor.as_ref(), 2);
        let dropped: Vec<MemberId> =
            before.members.iter().copied().filter(|m| !after.contains(*m)).collect();
        assert_eq!(dropped, [MemberId::of(7, 0)], "the crash view drops exactly (7, 0)");
    }
    let second = b.group.join_as(7).expect("rejoin");
    assert_eq!(second.id(), MemberId::of(7, 1), "the join count survives the crash");
    assert_eq!((second.id().replica().raw(), second.id().incarnation()), (7, 1));
    for m in [&a, &c, &second] {
        let mut v = await_members(m.as_ref(), 3);
        if m.id() == second.id() && !v.contains(second.id()) {
            // A backend that replays history to joiners shows the re-joined
            // member its predecessor's view first.
            assert!(v.contains(MemberId::of(7, 0)), "{v:?}");
            v = await_members(m.as_ref(), 3);
        }
        assert!(v.contains(MemberId::of(7, 1)) && !v.contains(MemberId::of(7, 0)), "{v:?}");
        let replicas: Vec<u64> = v.members.iter().map(|m| m.replica().raw()).collect();
        assert_eq!(replicas, [a.id().raw(), c.id().raw(), 7], "{v:?}");
    }
}

/// Instantiate every conformance test for one backend.
macro_rules! conformance {
    ($backend:ident: $($test:ident),* $(,)?) => {
        mod $backend {
            $(
                #[test]
                fn $test() {
                    super::$test(super::$backend());
                }
            )*
        }
    };
}

/// Instantiate every conformance test for every backend.
macro_rules! all_backends {
    ($($test:ident),* $(,)?) => {
        conformance!(sim: $($test),*);
        conformance!(tcp: $($test),*);
    };
}

all_backends!(
    total_order_is_identical_across_members,
    fifo_preserves_per_sender_order,
    view_changes_on_join_and_crash,
    crashed_member_eventually_cannot_multicast,
    uniform_delivery_is_a_prefix_before_the_crash_view,
    leave_produces_a_view_change,
    handles_multicast_from_other_threads,
    views_name_the_incarnation_a_crash_and_a_rejoin_touch,
);

// ---------------------------------------------------------------------------
// TCP-specific guarantees (beyond the shared contract): full-log replay to
// joiners, wire telemetry and the admin requests.
// ---------------------------------------------------------------------------

mod tcp_only {
    use super::*;

    #[test]
    fn joiner_replays_full_history() {
        let b = tcp();
        let a = b.group.join().expect("join");
        await_members(a.as_ref(), 1);
        let h = a.handle();
        for k in 0..5u64 {
            h.multicast_total(k).expect("multicast");
        }
        collect_total(a.as_ref(), 5);
        // The late joiner must see the complete sequenced stream — the 5
        // messages — *before* the view that admits it.
        let c = b.group.join().expect("join");
        let replay = collect_total(c.as_ref(), 5);
        let msgs: Vec<u64> = replay.iter().map(|&(_, _, msg)| msg).collect();
        assert_eq!(msgs, vec![0, 1, 2, 3, 4]);
        assert_consecutive(&replay);
        await_members(c.as_ref(), 2);
    }

    /// `Group::in_flight` on the TCP backend reports the real pending-send
    /// depth of this process's endpoints (see the module docs for the
    /// documented per-process weakening versus the sim tier).
    #[test]
    fn in_flight_gauge_is_honest() {
        let b = tcp();
        let a = b.group.join().expect("join");
        await_members(a.as_ref(), 1);
        let h = a.handle();
        for k in 0..5u64 {
            h.multicast_total(k).expect("multicast");
        }
        collect_total(a.as_ref(), 5);
        // Everything sent has been sequenced (our own deliveries came
        // back) and everything delivered has been received: current must
        // be zero, and the high-water mark must prove the gauge moved.
        let reading = b.group.in_flight();
        assert_eq!(reading.current, 0, "in-flight must drain to zero: {reading:?}");
        assert!(reading.high_water >= 1, "gauge never moved: {reading:?}");
    }

    #[test]
    fn transport_counters_track_wire_traffic() {
        let b = tcp();
        let a = b.group.join().expect("join");
        let c = b.group.join().expect("join");
        await_members(a.as_ref(), 2);
        await_members(c.as_ref(), 2);
        let h = a.handle();
        for k in 0..3u64 {
            h.multicast_total(k).expect("multicast");
        }
        collect_total(a.as_ref(), 3);
        collect_total(c.as_ref(), 3);

        let ta = a.transport();
        assert_eq!(ta.frames_out, 3, "sender frames_out: {ta:?}");
        assert!(ta.bytes_out > 0 && ta.bytes_in > 0, "byte counters never moved: {ta:?}");
        // The reader saw the totals plus at least one view frame.
        assert!(ta.frames_in >= 4, "reader frames_in: {ta:?}");
        assert_eq!(ta.decode_failures, 0);
        assert_eq!(ta.pending_sends.current, 0, "sends all sequenced: {ta:?}");
        assert!(ta.pending_sends.high_water >= 1);
        let tc = c.transport();
        assert_eq!(tc.frames_out, 0, "c never multicast: {tc:?}");
        assert!(tc.frames_in >= 4, "c delivered a's multicasts: {tc:?}");

        // The group rollup covers both endpoints and counts churn.
        let tg = b.group.transport();
        assert_eq!(tg.frames_out, 3);
        assert!(tg.frames_in >= ta.frames_in + tc.frames_in);
        assert_eq!(tg.evictions, 0);
        c.leave();
        await_members(a.as_ref(), 1);
        assert!(b.group.transport().evictions >= 1, "leave must count as an eviction");
    }

    /// Dropped endpoints fold their final counters into the group rollup,
    /// so `Group::transport()` stays monotonic across member churn.
    #[test]
    fn group_rollup_survives_member_drop() {
        let b = tcp();
        let a = b.group.join().expect("join");
        await_members(a.as_ref(), 1);
        let h = a.handle();
        for k in 0..3u64 {
            h.multicast_total(k).expect("multicast");
        }
        collect_total(a.as_ref(), 3);
        a.leave();
        drop(h);
        drop(a);
        // The fold lands when the last handle on the endpoint is dropped.
        let deadline = Instant::now() + TIMEOUT;
        loop {
            let t = b.group.transport();
            if t.frames_out == 3 {
                break;
            }
            assert!(Instant::now() < deadline, "retired counters never folded in: {t:?}");
            thread::sleep(STEP);
        }
    }

    /// The sequencer's admin scrape: log length, next sequence number,
    /// view id and per-member fan-out backlog.
    #[test]
    fn sequencer_stats_scrape() {
        let seq = Sequencer::spawn("127.0.0.1:0").expect("bind");
        let addr = seq.addr().to_string();
        let group = TcpGroup::<u64>::new(addr.clone(), 0);
        let a = group.join_as(0).expect("join");
        await_members(&a, 1);
        let h = Member::handle(&a);
        for k in 0..4u64 {
            h.multicast_total(k).expect("multicast");
        }
        collect_total(&a, 4);
        let stats = crate::tcp::query_seq_stats(&addr).expect("stats scrape");
        assert_eq!(stats.next_seq, 4, "{stats:?}");
        // Log holds the join view plus the 4 sequenced multicasts.
        assert!(stats.log_len >= 5, "{stats:?}");
        assert!(stats.view_id >= 1, "{stats:?}");
        assert_eq!(stats.members.len(), 1);
        assert_eq!(stats.members[0].0, a.id().raw());
        // Everything has been written out; backlog may lag the writer by a
        // moment but must drain.
        let deadline = Instant::now() + TIMEOUT;
        loop {
            let s = crate::tcp::query_seq_stats(&addr).expect("stats scrape");
            if s.backlog() == 0 {
                break;
            }
            assert!(Instant::now() < deadline, "fan-out backlog never drained: {s:?}");
            thread::sleep(STEP);
        }
    }

    /// `Group::crash` and `Group::view` used to read the reply with no
    /// timeout, so a sequencer that accepts and never answers blocked them
    /// for ever (while `query_seq_stats` on the same socket gave up).
    #[test]
    fn admin_calls_give_up_on_a_silent_sequencer() {
        use crate::tcp::ADMIN_TIMEOUT;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let group = TcpGroup::<u64>::new(listener.local_addr().expect("addr").to_string(), 0);
        let (release, held) = std::sync::mpsc::channel::<()>();
        thread::scope(|scope| {
            // Accept both admin connections and hold them open, silently.
            scope.spawn(move || {
                let conns: Vec<_> = (0..2).map(|_| listener.accept()).collect();
                let _ = held.recv();
                drop(conns);
            });
            fn timed(call: impl FnOnce()) -> Duration {
                let start = Instant::now();
                call();
                start.elapsed()
            }
            let view = scope.spawn(|| timed(|| assert!(group.view().members.is_empty())));
            let crash = scope.spawn(|| timed(|| group.crash(MemberId::new(0))));
            for (what, call) in [("view", view), ("crash", crash)] {
                let took = call.join().expect("admin call panicked");
                assert!(took < ADMIN_TIMEOUT + Duration::from_secs(3), "{what} took {took:?}");
            }
            drop(release);
        });
    }

    /// The clock-probe leg: the sequencer's monotonic clock is readable
    /// and monotonic across probes.
    #[test]
    fn sequencer_time_probe_is_monotonic() {
        let seq = Sequencer::spawn("127.0.0.1:0").expect("bind");
        let addr = seq.addr().to_string();
        let t0 = crate::tcp::probe_seq_time(&addr).expect("probe");
        let t1 = crate::tcp::probe_seq_time(&addr).expect("probe");
        assert!(t1 >= t0, "sequencer clock went backwards: {t0} -> {t1}");
    }

    /// Rejoins are counted as reconnects in the group rollup.
    #[test]
    fn rejoin_counts_as_reconnect() {
        let seq = Sequencer::spawn("127.0.0.1:0").expect("bind");
        let group = TcpGroup::<u64>::new(seq.addr().to_string(), 0);
        let first = group.join_as(7).expect("join");
        assert_eq!(Group::transport(&group).reconnects, 0);
        first.leave();
        let _second = group.join_as(7).expect("rejoin");
        assert_eq!(Group::transport(&group).reconnects, 1);
    }
}
