//! Semantics tests for the group communication system.

use crate::group::*;
use crate::traits::{Cast, Delivery, GcsError, Group, Member, HELD_SEND_SEQ};
use sirep_common::{MemberId, TimeScale};
use std::thread;
use std::time::{Duration, Instant};

/// Drain any pending view changes (joins produce them).
fn drain_views<M: Clone + Send + 'static>(m: &SimMember<M>) {
    while let Some(d) = m.try_recv() {
        assert!(matches!(d, Delivery::ViewChange(_)), "unexpected early delivery");
    }
}

fn collect_total<M: Clone + Send + 'static>(m: &SimMember<M>, n: usize) -> Vec<(u64, M)> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let d = m.recv_timeout(Duration::from_secs(5)).expect("timed out");
        if let Delivery::TotalOrder { seq, msg, .. } = d {
            out.push((seq, msg));
        }
    }
    out
}

#[test]
fn total_order_is_identical_across_members() {
    let group: SimGroup<(u64, u64)> = SimGroup::new(GroupConfig::instant());
    let members: Vec<SimMember<(u64, u64)>> = (0..4).map(|_| group.join()).collect();
    for m in &members {
        drain_views(m);
    }
    // 4 sender threads × 50 messages, concurrently.
    let mut senders = Vec::new();
    for (i, m) in members.iter().enumerate() {
        let h = m.handle();
        senders.push(thread::spawn(move || {
            for j in 0..50u64 {
                h.multicast_total((i as u64, j)).unwrap();
            }
        }));
    }
    for s in senders {
        s.join().unwrap();
    }
    let streams: Vec<Vec<(u64, (u64, u64))>> =
        members.iter().map(|m| collect_total(m, 200)).collect();
    for s in &streams[1..] {
        assert_eq!(s, &streams[0], "members disagree on total order");
    }
    // Sequence numbers are dense and increasing.
    let seqs: Vec<u64> = streams[0].iter().map(|(s, _)| *s).collect();
    assert_eq!(seqs, (0..200).collect::<Vec<_>>());
}

#[test]
fn senders_deliver_their_own_messages_in_order() {
    let group: SimGroup<u32> = SimGroup::new(GroupConfig::instant());
    let a = group.join();
    drain_views(&a);
    a.handle().multicast_total(1).unwrap();
    a.handle().multicast_total(2).unwrap();
    let got = collect_total(&a, 2);
    assert_eq!(got.iter().map(|(_, m)| *m).collect::<Vec<_>>(), vec![1, 2]);
}

#[test]
fn fifo_preserves_per_sender_order() {
    let group: SimGroup<u32> = SimGroup::new(GroupConfig::instant());
    let a = group.join();
    let b = group.join();
    drain_views(&a);
    drain_views(&b);
    for i in 0..20 {
        a.handle().multicast_fifo(i).unwrap();
    }
    let mut got = Vec::new();
    while got.len() < 20 {
        if let Delivery::Fifo { sender, msg } = b.recv_timeout(Duration::from_secs(5)).unwrap() {
            assert_eq!(sender, a.id());
            got.push(msg);
        }
    }
    assert_eq!(got, (0..20).collect::<Vec<_>>());
}

#[test]
fn view_changes_on_join_and_crash() {
    let group: SimGroup<u32> = SimGroup::new(GroupConfig::instant());
    let a = group.join();
    match a.recv().unwrap() {
        Delivery::ViewChange(v) => assert_eq!(v.members, vec![a.id()]),
        other => panic!("{other:?}"),
    }
    let b = group.join();
    match a.recv().unwrap() {
        Delivery::ViewChange(v) => {
            assert_eq!(v.members.len(), 2);
            assert!(v.contains(b.id()));
        }
        other => panic!("{other:?}"),
    }
    group.crash(b.id());
    match a.recv().unwrap() {
        Delivery::ViewChange(v) => assert_eq!(v.members, vec![a.id()]),
        other => panic!("{other:?}"),
    }
    assert_eq!(group.view().members, vec![a.id()]);
}

#[test]
fn crashed_member_cannot_multicast() {
    let group: SimGroup<u32> = SimGroup::new(GroupConfig::instant());
    let a = group.join();
    let b = group.join();
    group.crash(b.id());
    assert_eq!(b.handle().multicast_total(1), Err(GcsError::MemberCrashed));
    assert_eq!(b.handle().multicast_fifo(1), Err(GcsError::MemberCrashed));
    drop(a);
}

#[test]
fn uniform_delivery_messages_precede_crash_view() {
    // The §5.4 guarantee: survivors receive everything the crashed member
    // multicast before its crash, and only then the view change.
    let group: SimGroup<u32> = SimGroup::new(GroupConfig::instant());
    let a = group.join();
    let b = group.join();
    drain_views(&a);
    drain_views(&b);
    b.handle().multicast_total(1).unwrap();
    b.handle().multicast_total(2).unwrap();
    group.crash(b.id());
    let mut msgs = Vec::new();
    let mut saw_view = false;
    while msgs.len() < 2 || !saw_view {
        match a.recv_timeout(Duration::from_secs(5)).unwrap() {
            Delivery::TotalOrder { msg, .. } => {
                assert!(!saw_view, "message delivered after crash view");
                msgs.push(msg);
            }
            Delivery::ViewChange(v) => {
                assert!(!v.contains(b.id()));
                saw_view = true;
            }
            other => panic!("{other:?}"),
        }
    }
    assert_eq!(msgs, vec![1, 2]);
    assert!(saw_view);
}

#[test]
fn no_deliveries_to_crashed_member_after_crash() {
    let group: SimGroup<u32> = SimGroup::new(GroupConfig::instant());
    let a = group.join();
    let b = group.join();
    drain_views(&a);
    drain_views(&b);
    group.crash(b.id());
    a.handle().multicast_total(42).unwrap();
    // b gets nothing new (only what predates the crash — here nothing).
    assert!(b.try_recv().is_none());
    // a still receives its own message.
    let got = collect_total(&a, 1);
    assert_eq!(got[0].1, 42);
}

#[test]
fn wait_until_never_returns_early() {
    for i in 0..1_000u64 {
        let d = Duration::from_micros(30 + i * 1_970 / 999);
        let at = Instant::now() + d;
        wait_until(at);
        let now = Instant::now();
        assert!(now >= at, "a {d:?} wait returned {:?} early", at - now);
    }
}

#[test]
fn simulated_latency_is_applied() {
    let mut cfg = GroupConfig::instant();
    cfg.scale = TimeScale::REAL_TIME;
    cfg.total_order_delay_ms = 20.0;
    let group: SimGroup<u32> = SimGroup::new(cfg);
    let a = group.join();
    drain_views(&a);
    let start = Instant::now();
    a.handle().multicast_total(1).unwrap();
    // The entry is stamped with exactly the configured latency — whatever
    // the receiver measures beyond that is the scheduler's, not the sim's.
    let (sequenced_at, arrives_at) = {
        let st = group.inner.state.lock();
        let (_, mut entries) = st.log.pending(a.id().raw()).expect("a is a member");
        let entry = entries.next().expect("the multicast is at a's cursor");
        let Delivery::TotalOrder { sequenced_at, .. } = &entry.delivery else {
            panic!("not the multicast")
        };
        (*sequenced_at, entry.arrival(a.id()))
    };
    assert_eq!(arrives_at - sequenced_at, Duration::from_millis(20));
    let _ = collect_total(&a, 1);
    let elapsed = start.elapsed();
    assert!(elapsed >= Duration::from_millis(20), "latency not applied: {elapsed:?}");
}

/// `try_recv` returns only what has already arrived: it must not sleep out
/// the head entry's simulated latency (it used to — a full second for a
/// crash view under `GroupConfig::lan`).
#[test]
fn try_recv_does_not_wait_for_an_entry_still_in_transit() {
    let mut cfg = GroupConfig::instant();
    cfg.total_order_delay_ms = 50.0;
    let group: SimGroup<u32> = SimGroup::new(cfg);
    let a = group.join();
    drain_views(&a);
    a.handle().multicast_total(1).unwrap();
    let start = Instant::now();
    assert!(a.try_recv().is_none(), "delivered 50 ms early");
    let polled = start.elapsed();
    assert!(polled < Duration::from_millis(5), "try_recv blocked for {polled:?}");
    // A timeout shorter than the latency leaves the entry where it is too.
    assert_eq!(a.recv_timeout(Duration::from_millis(1)).err(), Some(GcsError::Timeout));
    assert_eq!(collect_total(&a, 1), vec![(0, 1)]);
    assert!(start.elapsed() >= Duration::from_millis(50));
}

#[test]
fn latency_scales_with_time_scale() {
    let mut cfg = GroupConfig::lan(TimeScale::compressed(100.0));
    cfg.total_order_delay_ms = 100.0; // → 1 ms wall at 100x
    let group: SimGroup<u32> = SimGroup::new(cfg);
    let a = group.join();
    drain_views(&a);
    let start = Instant::now();
    a.handle().multicast_total(1).unwrap();
    let _ = collect_total(&a, 1);
    assert!(start.elapsed() < Duration::from_millis(100));
}

#[test]
fn mixed_total_and_fifo_streams_are_monotonic() {
    // The per-member horizon must prevent a later (low-latency) FIFO message
    // from arriving before an earlier (high-latency) total-order message.
    let mut cfg = GroupConfig::instant();
    cfg.total_order_delay_ms = 30.0;
    cfg.fifo_delay_ms = 0.0;
    cfg.scale = TimeScale::REAL_TIME;
    let group: SimGroup<&'static str> = SimGroup::new(cfg);
    let a = group.join();
    let b = group.join();
    drain_views(&a);
    drain_views(&b);
    a.handle().multicast_total("slow").unwrap();
    a.handle().multicast_fifo("fast").unwrap();
    let first = b.recv_timeout(Duration::from_secs(5)).unwrap();
    match first {
        Delivery::TotalOrder { msg, .. } => assert_eq!(msg, "slow"),
        other => panic!("stream reordered: {other:?}"),
    }
}

#[test]
fn crash_is_idempotent_and_unknown_ids_ignored() {
    let group: SimGroup<u32> = SimGroup::new(GroupConfig::instant());
    let a = group.join();
    let b = group.join();
    group.crash(b.id());
    group.crash(b.id());
    group.crash(MemberId::new(999));
    drain_views(&a);
    assert_eq!(group.view().members, vec![a.id()]);
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    /// One scripted step of a chaos run.
    #[derive(Debug, Clone)]
    enum Step {
        Send { member: usize, msg: u32 },
        Crash { member: usize },
    }

    fn step() -> impl Strategy<Value = Step> {
        prop_oneof![
            8 => (0usize..4, any::<u32>()).prop_map(|(member, msg)| Step::Send { member, msg }),
            1 => (0usize..4).prop_map(|member| Step::Crash { member }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

        /// Under random sends and crashes, all members deliver prefixes of
        /// one common total order, and every message a survivor delivers
        /// from a crashed sender precedes the view change that removes it.
        #[test]
        fn total_order_survives_crashes(steps in prop::collection::vec(step(), 1..40)) {
            let group: SimGroup<u32> = SimGroup::new(GroupConfig::instant());
            let members: Vec<SimMember<u32>> = (0..4).map(|_| group.join()).collect();
            let mut alive = [true; 4];
            let mut expected: Vec<u32> = Vec::new();
            for s in &steps {
                match s {
                    Step::Send { member, msg } => {
                        let r = members[*member].handle().multicast_total(*msg);
                        if alive[*member] {
                            prop_assert!(r.is_ok());
                            expected.push(*msg);
                        } else {
                            prop_assert_eq!(r, Err(GcsError::MemberCrashed));
                        }
                    }
                    Step::Crash { member } => {
                        group.crash(members[*member].id());
                        alive[*member] = false;
                    }
                }
            }
            // Keep at least one member alive to observe the full stream.
            let Some(observer) = alive.iter().position(|&a| a) else { return Ok(()) };
            // Drain every alive member's stream.
            let mut streams: Vec<Vec<u32>> = vec![Vec::new(); 4];
            for (i, m) in members.iter().enumerate() {
                if !alive[i] {
                    continue;
                }
                while let Some(d) = m.try_recv() {
                    if let Delivery::TotalOrder { msg, .. } = d {
                        streams[i].push(msg);
                    }
                }
            }
            // The observer (alive the whole run) saw exactly the accepted
            // messages, in order.
            prop_assert_eq!(&streams[observer], &expected);
            // Every other alive member saw the same sequence (it joined the
            // group at the start, so full equality, not just prefix).
            for (i, s) in streams.iter().enumerate() {
                if alive[i] && i != observer {
                    prop_assert_eq!(s, &expected);
                }
            }
        }
    }
}

#[test]
fn handles_work_from_other_threads() {
    let group: SimGroup<u64> = SimGroup::new(GroupConfig::instant());
    let a = group.join();
    drain_views(&a);
    let h = a.handle();
    let t = thread::spawn(move || {
        for i in 0..10 {
            h.multicast_total(i).unwrap();
        }
    });
    t.join().unwrap();
    let got = collect_total(&a, 10);
    assert_eq!(got.len(), 10);
}

// --- fault injection (chaos harness substrate) ---------------------------

mod faults {
    use super::*;
    use crate::fault::{FaultConfig, FaultRecord};
    use sirep_common::FaultKind;

    /// A member whose endpoint vanished without a `crash()` (hung process,
    /// dropped receiver) must not linger in the view: dropping the endpoint
    /// leaves the group, and every survivor is told.
    #[test]
    fn suspected_member_without_crash_gets_view_change() {
        let group: SimGroup<u32> = SimGroup::new(GroupConfig::instant());
        let a = group.join();
        let b = group.join();
        drain_views(&a);
        drain_views(&b);
        let b_id = b.id();
        drop(b); // endpoint gone, but nobody called crash()
        a.handle().multicast_total(7).unwrap();
        let mut got_msg = false;
        let mut view = None;
        while !got_msg || view.is_none() {
            match a.recv_timeout(Duration::from_secs(5)) {
                Ok(Delivery::TotalOrder { msg, .. }) => {
                    assert_eq!(msg, 7);
                    got_msg = true;
                }
                Ok(Delivery::ViewChange(v)) => view = Some(v),
                other => panic!("unexpected: {other:?}"),
            }
        }
        assert!(got_msg, "the survivor must still get the payload");
        let view = view.expect("eviction must produce a view change");
        assert!(view.contains(a.id()));
        assert!(!view.contains(b_id), "the suspect must leave the view");
        assert!(!group.view().contains(b_id));
    }

    /// Every member consumes, so the log is trimmed as it goes: what the
    /// group retains does not grow with the number of multicasts.
    #[test]
    fn consumed_log_stays_bounded() {
        let group: SimGroup<u64> = SimGroup::new(GroupConfig::instant());
        let members: Vec<SimMember<u64>> = (0..3).map(|_| group.join()).collect();
        let sender = members[0].handle();
        let mut high_water = 0;
        for i in 0..10_000 {
            sender.multicast_total(i).unwrap();
            for m in &members {
                while m.try_recv().is_some() {}
            }
            high_water = high_water.max(group.inner.state.lock().log.retained());
        }
        assert!(high_water <= 4, "retained up to {high_water} entries");
        assert_eq!(group.inner.state.lock().log.end(), 10_003, "3 join views + the multicasts");
        assert_eq!(group.in_flight().current, 0);
    }

    #[test]
    fn dropped_messages_are_retransmitted_not_lost() {
        let group: SimGroup<u32> = SimGroup::new(GroupConfig::instant());
        let a = group.join();
        let b = group.join();
        drain_views(&a);
        drain_views(&b);
        // Drop *every* first attempt: uniform reliable delivery must still
        // hold — a drop only costs the simulated retransmission latency.
        group.install_faults(FaultConfig {
            drop_prob: 1.0,
            retransmit_delay_ms: 0.5,
            ..FaultConfig::quiet(11)
        });
        for i in 0..20 {
            a.handle().multicast_total(i).unwrap();
        }
        let got = collect_total(&b, 20);
        assert_eq!(got.iter().map(|(_, m)| *m).collect::<Vec<_>>(), (0..20).collect::<Vec<_>>());
        let drops = group
            .fault_log()
            .iter()
            .filter(|r| matches!(r, FaultRecord::Fault { kind: FaultKind::Drop, .. }))
            .count();
        assert_eq!(drops, 40, "2 members x 20 messages, all first attempts dropped");
    }

    #[test]
    fn partition_holds_and_heals_in_order() {
        let group: SimGroup<u32> = SimGroup::new(GroupConfig::instant());
        let a = group.join();
        let b = group.join();
        let c = group.join();
        for m in [&a, &b, &c] {
            drain_views(m);
        }
        group.partition(&[c.id()]);
        for i in 0..10 {
            a.handle().multicast_total(i).unwrap();
        }
        let b_got = collect_total(&b, 10);
        assert!(c.try_recv().is_none(), "deliveries to the isolated member are held");
        // The isolated member's own multicast is buffered, not sequenced.
        assert_eq!(c.handle().multicast_total(99).unwrap(), HELD_SEND_SEQ);
        assert!(b.try_recv().is_none(), "the held send must not leak before heal");
        group.heal();
        // The healed member catches up in exactly the order the majority
        // saw, and only then does its buffered send get sequenced.
        let c_got = collect_total(&c, 11);
        assert_eq!(&c_got[..10], &b_got[..]);
        assert_eq!(c_got[10].1, 99);
        assert_eq!(collect_total(&b, 1)[0].1, 99);
        let a_got = collect_total(&a, 11);
        assert_eq!(a_got[10].1, 99);
        assert_eq!(a.in_flight().current, 0);
    }
}
