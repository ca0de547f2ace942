//! The sequencer core (`gcs/src/seqlog.rs`) from tier-1: the delivery
//! contract both transport backends inherit, checked on the pure state
//! machine with no thread, clock or socket. Random join / evict / total /
//! fifo / advance / trim sequences must keep four things true, whatever
//! index a joiner starts from (0, the end, or mid-log as sirep-model
//! admits a recovering replica at its donor's cursor):
//!
//! - every member's consumed stream is a contiguous slice of one log;
//! - a view entry sits at the same log index for everyone who consumes it;
//! - a sender's frames appear in its submission order, total-order sequence
//!   numbers are dense from 0, and a non-member's frame changes nothing;
//! - a member id is minted once: it names the joiner's replica and how many
//!   times that replica was admitted before, whatever was evicted or
//!   trimmed in between, and is never handed out again.

use proptest::prelude::*;
use si_rep::common::MemberId;
use si_rep::gcs::SeqLog;
use std::collections::BTreeMap;

#[derive(Debug, Clone, PartialEq)]
enum Frame {
    View { id: u64, members: Vec<u64> },
    Total { seq: u64, sender: u64, nth: u64 },
    Fifo { sender: u64, nth: u64 },
}

type Log = SeqLog<Frame, ()>;

fn view(log: &Log) -> Frame {
    Frame::View { id: log.view_id(), members: log.members().map(|(id, ())| id).collect() }
}

/// One step of a run. Member picks index (modulo) into every id that ever
/// joined, so evicted members keep being picked as senders and readers.
#[derive(Debug, Clone)]
enum Op {
    /// A join of one of four replicas, so most joins are re-admits,
    /// asking for its cursor at `from`: 0, mid-log, or past the end.
    Join {
        replica: u64,
        from: u64,
    },
    Evict(Vec<usize>),
    Total(usize),
    Fifo(usize),
    Advance(usize, u64),
    Trim,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => (0u64..4, prop_oneof![Just(0), 0u64..96, Just(u64::MAX)])
            .prop_map(|(replica, from)| Op::Join { replica, from }),
        1 => prop::collection::vec(0usize..8, 0..3).prop_map(Op::Evict),
        6 => (0usize..8).prop_map(Op::Total),
        3 => (0usize..8).prop_map(Op::Fifo),
        6 => (0usize..8, 0u64..6).prop_map(|(m, n)| Op::Advance(m, n)),
        2 => Just(Op::Trim),
    ]
}

/// What the test tracks per member: where its cursor started and what it
/// has consumed since.
struct Reader {
    start: u64,
    consumed: Vec<Frame>,
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

    #[test]
    fn every_stream_is_a_contiguous_slice_of_one_log(ops in prop::collection::vec(op(), 1..80)) {
        let mut log = Log::default();
        // Every frame the log accepted, in append order, never trimmed.
        let mut shadow: Vec<Frame> = Vec::new();
        let mut readers: BTreeMap<u64, Reader> = BTreeMap::new();
        let mut submitted: BTreeMap<u64, u64> = BTreeMap::new();
        // Admits so far, per replica.
        let mut admits: BTreeMap<u64, u64> = BTreeMap::new();
        let pick = |readers: &BTreeMap<u64, Reader>, i: usize| {
            readers.keys().nth(i % readers.len().max(1)).copied().unwrap_or(999)
        };

        for op in ops {
            match op {
                Op::Join { replica, from } => {
                    // What the log still holds: trimmed frames are gone.
                    let (first, end) = (log.end() - log.retained() as u64, log.end());
                    let id = log.admit(replica, (), from, view).expect("a small replica id fits");
                    shadow.push(view(&log));
                    let earlier = admits.entry(replica).or_insert(0);
                    let member = MemberId::new(id);
                    prop_assert_eq!((member.replica().raw(), member.incarnation()), (replica, *earlier));
                    *earlier += 1;
                    prop_assert!(!readers.contains_key(&id), "id {} handed out twice", id);
                    // A joiner starts where it asked, clamped to what the
                    // log held: no earlier than trim left, no later than
                    // its own view.
                    let start = log.pending(id).expect("just joined").0;
                    prop_assert_eq!(start, from.clamp(first, end));
                    prop_assert!(start < log.end());
                    readers.insert(id, Reader { start, consumed: Vec::new() });
                }
                Op::Evict(picks) => {
                    let ids: Vec<u64> = picks.iter().map(|&i| pick(&readers, i)).collect();
                    let mut live: Vec<u64> =
                        ids.iter().copied().filter(|&id| log.contains(id)).collect();
                    live.sort_unstable();
                    live.dedup();
                    let (end, view_id) = (log.end(), log.view_id());
                    let gone = log.evict(&ids, view).len();
                    prop_assert_eq!(gone, live.len());
                    if gone == 0 {
                        prop_assert_eq!((log.end(), log.view_id()), (end, view_id));
                    } else {
                        prop_assert_eq!((log.end(), log.view_id()), (end + 1, view_id + 1));
                        shadow.push(view(&log));
                    }
                    for id in ids {
                        prop_assert!(!log.contains(id) && log.pending(id).is_none());
                    }
                }
                Op::Total(i) | Op::Fifo(i) => {
                    let sender = pick(&readers, i);
                    let nth = submitted.get(&sender).copied().unwrap_or(0);
                    let before = (log.end(), log.next_seq());
                    let accepted = if matches!(op, Op::Total(_)) {
                        let seq = log.total(sender, |seq| Frame::Total { seq, sender, nth });
                        prop_assert_eq!(seq, log.contains(sender).then_some(before.1));
                        if let Some(seq) = seq {
                            shadow.push(Frame::Total { seq, sender, nth });
                        }
                        seq.is_some()
                    } else {
                        let accepted = log.fifo(sender, Frame::Fifo { sender, nth });
                        if accepted {
                            shadow.push(Frame::Fifo { sender, nth });
                        }
                        accepted
                    };
                    prop_assert_eq!(accepted, log.contains(sender));
                    if accepted {
                        submitted.insert(sender, nth + 1);
                    } else {
                        let after = (log.end(), log.next_seq());
                        prop_assert_eq!(after, before, "a refused frame changed the log");
                    }
                }
                Op::Advance(i, n) => {
                    let id = pick(&readers, i);
                    let Some((next, frames)) = log.pending(id) else {
                        prop_assert!(!log.contains(id));
                        continue;
                    };
                    let reader = readers.get_mut(&id).expect("members are tracked");
                    prop_assert_eq!(next, reader.start + reader.consumed.len() as u64);
                    reader.consumed.extend(frames.take(n as usize).cloned());
                    log.advance(id, n);
                }
                Op::Trim => {
                    log.trim();
                    let slowest = log.backlog().map(|(_, behind)| behind).max().unwrap_or(0);
                    prop_assert_eq!(log.retained() as u64, slowest, "trim stops at the slowest");
                }
            }
            prop_assert_eq!(shadow.len() as u64, log.end());
        }

        // One log: each reader consumed a contiguous slice of it...
        let mut view_at: BTreeMap<u64, u64> = BTreeMap::new();
        for (id, r) in &readers {
            let start = r.start as usize;
            let slice = &shadow[start..start + r.consumed.len()];
            prop_assert_eq!(&r.consumed[..], slice, "member {}", id);
            // ...so a view sits at one index for everyone.
            for (offset, frame) in r.consumed.iter().enumerate() {
                if let Frame::View { id: view, .. } = frame {
                    let at = r.start + offset as u64;
                    prop_assert_eq!(*view_at.entry(*view).or_insert(at), at);
                }
            }
        }
        // ...in which each sender's frames are in submission order and the
        // total-order sequence is dense.
        let mut nth_of: BTreeMap<u64, u64> = BTreeMap::new();
        let mut next_seq = 0;
        for frame in &shadow {
            let (Frame::Total { sender, nth, .. } | Frame::Fifo { sender, nth }) = frame else {
                continue;
            };
            let expect = nth_of.entry(*sender).or_insert(0);
            prop_assert_eq!(*nth, *expect);
            *expect += 1;
            if let Frame::Total { seq, .. } = frame {
                prop_assert_eq!(*seq, next_seq);
                next_seq += 1;
            }
        }
    }
}
