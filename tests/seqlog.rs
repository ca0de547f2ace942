//! The sequencer core (`gcs/src/seqlog.rs`) from tier-1: the delivery
//! contract both transport backends inherit, and the TCP shell's ownership
//! rule, checked on the pure state machine with no thread, clock or socket.
//! Random join / evict / total / fifo / advance / trim sequences, each
//! append followed by a `claim` as the shell's fan-out does, interleaved
//! with owners' takes (an appender's may leave a leftover, a writer's sends
//! it all) and releases, must keep these things true, whatever index a
//! joiner starts from (0, the end, or mid-log as sirep-model admits a
//! recovering replica at its donor's cursor):
//!
//! - every member's consumed stream — what `advance` skipped past and what
//!   its owners took and sent — is a contiguous slice of one log;
//! - a member has at most one owner, `claim` takes only ownerless ones, and
//!   pending frames or a leftover mean it has one; a release with a
//!   leftover hands it to its writer, and `evict` returns its conn and
//!   forgets its owner;
//! - a view entry sits at the same log index for everyone who consumes it;
//! - a sender's frames appear in its submission order, total-order sequence
//!   numbers are dense from 0, and a non-member's frame changes nothing;
//! - a member id is minted once: it names the joiner's replica and how many
//!   times that replica was admitted before, whatever was evicted or
//!   trimmed in between, and is never handed out again.

use proptest::prelude::*;
use si_rep::common::MemberId;
use si_rep::gcs::{Owner, SeqLog};
use std::collections::{BTreeMap, BTreeSet};

/// A log entry, or (`Rest`) what a short write left unsent.
#[derive(Debug, Clone, PartialEq)]
enum Frame {
    View { id: u64, members: Vec<u64> },
    Total { seq: u64, sender: u64, nth: u64 },
    Fifo { sender: u64, nth: u64 },
    Rest(Vec<Frame>),
}

impl Frame {
    fn flatten(self) -> Vec<Frame> {
        match self {
            Frame::Rest(frames) => frames,
            frame => vec![frame],
        }
    }
}

/// A member's conn is the number of the op that admitted it, so `evict`
/// shows whose it returns.
type Log = SeqLog<Frame, usize>;

fn view(log: &Log) -> Frame {
    Frame::View { id: log.view_id(), members: log.members().map(|(id, _)| id).collect() }
}

fn owner(log: &Log, id: u64) -> Option<Owner> {
    log.owner(id).map(|(owner, _)| owner)
}

fn has_leftover(log: &Log, id: u64) -> bool {
    log.owner(id).is_some_and(|(_, leftover)| leftover.is_some())
}

/// Take `id`'s next chunk of at most `budget` frames (at least one),
/// flattened.
fn take(log: &mut Log, id: u64, budget: usize) -> Vec<Frame> {
    let mut frames = 0;
    let chunk = log.take(id, |frame| {
        frames += if let Frame::Rest(rest) = frame { rest.len() } else { 1 };
        frames < budget
    });
    chunk.into_iter().flat_map(Frame::flatten).collect()
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
    /// An appender takes a chunk of at most `budget` frames from a member
    /// it owns and sends `sent` of them; the rest goes back as a leftover.
    Send {
        member: usize,
        budget: usize,
        sent: usize,
    },
    /// An owner gives a member up.
    Release(usize),
    /// A member's writer takes a chunk and sends all of it.
    CatchUp(usize, usize),
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
        4 => (0usize..8, 1usize..4, 0usize..4)
            .prop_map(|(member, budget, sent)| Op::Send { member, budget, sent }),
        2 => (0usize..8).prop_map(Op::Release),
        3 => (0usize..8, 1usize..4).prop_map(|(m, budget)| Op::CatchUp(m, budget)),
    ]
}

/// What the test tracks per member: its conn, where its cursor started and
/// what it has consumed since.
struct Reader {
    conn: usize,
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
        // Who owns each member, as the test tracks it (absent: nobody).
        let mut held: BTreeMap<u64, Owner> = BTreeMap::new();
        let pick = |readers: &BTreeMap<u64, Reader>, i: usize| {
            readers.keys().nth(i % readers.len().max(1)).copied().unwrap_or(999)
        };

        for (step, op) in ops.into_iter().enumerate() {
            let appended = log.end();
            match op {
                Op::Join { replica, from } => {
                    // What the log still holds: trimmed frames are gone.
                    let (first, end) = (log.end() - log.retained() as u64, log.end());
                    let id = log.admit(replica, step, from, view).expect("a small replica id fits");
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
                    readers.insert(id, Reader { conn: step, start, consumed: Vec::new() });
                    // The joiner is the admitting thread's.
                    prop_assert_eq!(owner(&log, id), Some(Owner::Appender));
                    held.insert(id, Owner::Appender);
                }
                Op::Evict(picks) => {
                    let ids: Vec<u64> = picks.iter().map(|&i| pick(&readers, i)).collect();
                    let mut live: Vec<u64> =
                        ids.iter().copied().filter(|&id| log.contains(id)).collect();
                    live.sort_unstable();
                    live.dedup();
                    let (end, view_id) = (log.end(), log.view_id());
                    let mut seen = BTreeSet::new();
                    let conns: Vec<usize> = ids
                        .iter()
                        .filter(|&&id| log.contains(id) && seen.insert(id))
                        .map(|id| readers[id].conn)
                        .collect();
                    let gone = log.evict(&ids, view);
                    prop_assert_eq!(&gone, &conns, "evict returns each member's conn once");
                    let gone = gone.len();
                    prop_assert_eq!(gone, live.len());
                    if gone == 0 {
                        prop_assert_eq!((log.end(), log.view_id()), (end, view_id));
                    } else {
                        prop_assert_eq!((log.end(), log.view_id()), (end + 1, view_id + 1));
                        shadow.push(view(&log));
                    }
                    for id in ids {
                        prop_assert!(!log.contains(id) && log.pending(id).is_none());
                        prop_assert_eq!(owner(&log, id), None, "eviction ends ownership");
                        prop_assert!(take(&mut log, id, 3).is_empty() && !log.release(id, None));
                        held.remove(&id);
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
                    // A leftover comes before the cursor: only its owner's
                    // take passes it.
                    if has_leftover(&log, id) {
                        continue;
                    }
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
                Op::Send { .. } | Op::CatchUp(..) => {
                    let (member, budget, sent, writer) = match op {
                        Op::Send { member, budget, sent } => (member, budget, sent, false),
                        Op::CatchUp(member, budget) => (member, budget, usize::MAX, true),
                        _ => unreachable!(),
                    };
                    let id = pick(&readers, member);
                    let taker = if writer { Owner::Writer } else { Owner::Appender };
                    if held.get(&id) != Some(&taker) {
                        continue;
                    }
                    let reader = readers.get_mut(&id).expect("members are tracked");
                    let leftover = has_leftover(&log, id);
                    let chunk = take(&mut log, id, budget);
                    // The leftover first, then the frames past the cursor:
                    // the chunk continues the member's stream.
                    let at = (reader.start as usize) + reader.consumed.len();
                    prop_assert_eq!(&chunk[..], &shadow[at..at + chunk.len()]);
                    prop_assert!(chunk.len() <= budget.max(1) || leftover, "over budget");
                    let sent = sent.min(chunk.len());
                    reader.consumed.extend_from_slice(&chunk[..sent]);
                    if sent < chunk.len() {
                        let rest = Frame::Rest(chunk[sent..].to_vec());
                        prop_assert!(log.release(id, Some(rest)), "a leftover wakes the writer");
                        prop_assert_eq!(owner(&log, id), Some(Owner::Writer));
                        held.insert(id, Owner::Writer);
                    }
                }
                Op::Release(i) => {
                    let id = pick(&readers, i);
                    // An owner releases only what it has taken.
                    if !held.contains_key(&id) || has_leftover(&log, id) {
                        continue;
                    }
                    let behind = log.backlog().any(|(m, n)| m == id && n > 0);
                    let woken = log.release(id, None);
                    prop_assert_eq!(woken, behind, "only a member with frames left goes to its writer");
                    if woken {
                        held.insert(id, Owner::Writer);
                    } else {
                        held.remove(&id);
                    }
                }
            }
            // Claim after an append, as the shell's fan-out does: only an
            // append gives an ownerless member frames.
            if log.end() > appended {
                for id in log.claim() {
                    let earlier = held.insert(id, Owner::Appender);
                    prop_assert!(earlier.is_none(), "{} had an owner", id);
                }
            } else {
                prop_assert!(log.claim().is_empty(), "nothing appended, nothing to claim");
            }
            // One owner each, the one the test tracks; and frames pending or
            // a leftover mean there is one.
            for (id, behind) in log.backlog().collect::<Vec<_>>() {
                let expect = held.get(&id).copied().unwrap_or(Owner::Nobody);
                prop_assert_eq!(owner(&log, id), Some(expect), "member {}", id);
                if behind > 0 || has_leftover(&log, id) {
                    prop_assert!(expect != Owner::Nobody, "member {} is behind with no owner", id);
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
