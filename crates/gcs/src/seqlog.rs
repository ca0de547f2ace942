//! The sequencer, as a data structure: one log of frames, one cursor and
//! one socket owner per member, and nothing else — no thread, clock or
//! socket. [`crate::SimGroup`] adds simulated latency and the seeded fault
//! plan, [`crate::Sequencer`] sockets and threads; sirep-model runs it as
//! its replica model's network and as its sequencer model (driven the way
//! the TCP shell's threads drive it), memoized by value (hence `Clone` and
//! `Ord`). Each backend keeps one `SeqLog` behind one lock and calls every
//! `&mut` method under it.
//!
//! **The delivery contract** (what SRCA-Rep §5.2/§5.4 assumes of the GCS,
//! and what `conformance_tests.rs` checks on both backends) follows from
//! that shape — *one log, appended under one lock, every cursor reads it in
//! index order*:
//!
//! - **Total order.** Total-order frames, FIFO frames and view changes are
//!   entries of the same log. A cursor only moves forward, so every member
//!   consumes a contiguous slice of one stream: same frames, same order,
//!   same interleaving. [`SeqLog::total`] numbers frames densely from 0.
//! - **Uniform reliable delivery.** A frame is appended *before* any later
//!   eviction's view entry, so every survivor's cursor passes it first; a
//!   frame from a sender that is no longer a member is refused and leaves
//!   the log untouched. That is §5.4's dichotomy: a crashed replica's
//!   writeset reaches every survivor *before the crash view, or not at all*.
//! - **View synchrony.** [`SeqLog::admit`] and [`SeqLog::evict`] change the
//!   member table and append the view that says so in one step; the view
//!   sits at one log index, hence at the same position in every stream.
//! - **Self-describing views.** [`SeqLog::admit`] is the only place a member
//!   id is minted: `(joins of that replica so far, replica)` packed as
//!   [`MemberId::of`]. An id is never reused, so a view names exactly which
//!   incarnation of which replica it adds or drops — what §5.4's in-doubt
//!   answer "never received" needs — and nobody downstream counts or maps.
//!
//! **Ownership** (the TCP shell's, DESIGN.md §14): *frames past a cursor,
//! or a leftover, mean the member has an [`Owner`]*, the one thread that
//! may [`SeqLog::take`] from it and write to its socket. [`SeqLog::claim`]
//! after every append and [`SeqLog::release`] keep that; `SimGroup` and
//! the replica model never call them.
//!
//! A slow member is a cursor that lags ([`SeqLog::backlog`]); it never
//! delays an append. [`SeqLog::trim`] drops what every cursor has passed;
//! indices stay absolute, so trimming is invisible to the cursors.

use sirep_common::MemberId;
use std::collections::{vec_deque, BTreeMap, VecDeque};

/// Who may write to a member's socket: nobody (it has nothing left), the
/// thread that appended or admitted it, or its writer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Owner {
    Nobody,
    Appender,
    Writer,
}

#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Cursor<F, C> {
    conn: C,
    /// Absolute index of the first frame this member has not consumed.
    next: u64,
    owner: Owner,
    /// What a short write left unsent (boxed: it is rare).
    leftover: Option<Box<F>>,
}

/// The sequenced log of opaque frames `F` plus the member table
/// `id → (C, cursor)`; `C` is whatever the shell keeps per member.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SeqLog<F, C> {
    next_seq: u64,
    view_id: u64,
    /// Sorted by id, so views and iteration order are deterministic.
    members: BTreeMap<u64, Cursor<F, C>>,
    /// Times each replica has been admitted — the next joiner's
    /// incarnation. Only ever grows: eviction and trimming leave it alone.
    joins: BTreeMap<u64, u64>,
    /// Absolute index of `frames[0]`; everything below it was trimmed.
    base: u64,
    frames: VecDeque<F>,
}

impl<F, C> Default for SeqLog<F, C> {
    fn default() -> Self {
        SeqLog {
            next_seq: 0,
            view_id: 0,
            members: BTreeMap::new(),
            joins: BTreeMap::new(),
            base: 0,
            frames: VecDeque::new(),
        }
    }
}

impl<F, C> SeqLog<F, C> {
    /// The next total-order sequence number [`SeqLog::total`] will assign.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Id of the latest view (0 before the first join).
    pub fn view_id(&self) -> u64 {
        self.view_id
    }

    /// The absolute index the next appended frame gets: the log's length,
    /// trimmed frames included.
    pub fn end(&self) -> u64 {
        self.base + self.frames.len() as u64
    }

    /// Frames currently held (`end()` minus what [`SeqLog::trim`] dropped).
    pub fn retained(&self) -> usize {
        self.frames.len()
    }

    /// The current members in id order.
    pub fn members(&self) -> impl Iterator<Item = (u64, &C)> {
        self.members.iter().map(|(&id, c)| (id, &c.conn))
    }

    pub fn contains(&self, id: u64) -> bool {
        self.members.contains_key(&id)
    }

    /// What the shell keeps for `id`; `None` once `id` is not a member.
    pub fn conn_mut(&mut self, id: u64) -> Option<&mut C> {
        self.members.get_mut(&id).map(|c| &mut c.conn)
    }

    fn push_view(&mut self, view: impl FnOnce(&Self) -> F) {
        self.view_id += 1;
        let frame = view(self);
        self.frames.push_back(frame);
    }

    /// Admit a fresh incarnation of `replica`: mint its member id, register
    /// its cursor at `from` (clamped to what the log still holds: 0 replays
    /// all of it, [`SeqLog::end`] starts at the joiner's own view), owned
    /// by the admitting thread, and append the view that includes it. `view` renders a view frame from
    /// the log's new `view_id` and `members`. `None`: `replica` does not
    /// fit in an id ([`MemberId::INCARNATION_SHIFT`]), nothing happened.
    pub fn admit(
        &mut self,
        replica: u64,
        conn: C,
        from: u64,
        view: impl FnOnce(&Self) -> F,
    ) -> Option<u64> {
        if replica >> MemberId::INCARNATION_SHIFT != 0 {
            return None;
        }
        let joins = self.joins.entry(replica).or_insert(0);
        let id = MemberId::of(replica, *joins).raw();
        *joins += 1;
        let next = from.clamp(self.base, self.end());
        self.members.insert(id, Cursor { conn, next, owner: Owner::Appender, leftover: None });
        self.push_view(view);
        Some(id)
    }

    /// Remove `ids` and append one view covering all of them; ids that are
    /// not members are skipped, and if none is, nothing is appended. An
    /// evicted member has no owner and nothing to take any more. Returns
    /// what the shell kept for each evicted member.
    pub fn evict(&mut self, ids: &[u64], view: impl FnOnce(&Self) -> F) -> Vec<C> {
        let gone: Vec<C> =
            ids.iter().filter_map(|id| self.members.remove(id)).map(|c| c.conn).collect();
        if !gone.is_empty() {
            self.push_view(view);
        }
        gone
    }

    /// Append `sender`'s total-order frame, built from the sequence number
    /// it is assigned. `None`: `sender` is not a member, nothing happened.
    pub fn total(&mut self, sender: u64, frame: impl FnOnce(u64) -> F) -> Option<u64> {
        if !self.contains(sender) {
            return None;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.frames.push_back(frame(seq));
        Some(seq)
    }

    /// Append `sender`'s FIFO frame; `false` (and no append) for a
    /// non-member.
    pub fn fifo(&mut self, sender: u64, frame: F) -> bool {
        let member = self.contains(sender);
        if member {
            self.frames.push_back(frame);
        }
        member
    }

    /// `id`'s cursor and the frames from it to the log's end, in order;
    /// `None` once `id` is not a member.
    pub fn pending(&self, id: u64) -> Option<(u64, vec_deque::Iter<'_, F>)> {
        let next = self.members.get(&id)?.next;
        Some((next, self.frames.range((next - self.base) as usize..)))
    }

    /// Move `id`'s cursor `n` frames forward (never past the end).
    pub fn advance(&mut self, id: u64, n: u64) {
        let end = self.end();
        if let Some(c) = self.members.get_mut(&id) {
            c.next = (c.next + n).min(end);
        }
    }

    /// After an append: the caller now owns every ownerless member with
    /// frames pending. Returns their ids.
    pub fn claim(&mut self) -> Vec<u64> {
        let (end, mut claimed) = (self.end(), Vec::new());
        for (&id, c) in &mut self.members {
            if c.owner == Owner::Nobody && c.next < end {
                c.owner = Owner::Appender;
                claimed.push(id);
            }
        }
        claimed
    }

    /// The owner's next chunk for `id`, the cursor moved past it: the
    /// leftover, then frames while `fits` — told each one taken — says
    /// another fits. Empty once nothing is left or `id` is not a member.
    pub fn take(&mut self, id: u64, mut fits: impl FnMut(&F) -> bool) -> Vec<F>
    where
        F: Clone,
    {
        let Some(c) = self.members.get_mut(&id) else { return Vec::new() };
        let mut chunk: Vec<F> = c.leftover.take().map(|rest| *rest).into_iter().collect();
        let (carried, mut room) = (chunk.len(), chunk.iter().all(&mut fits));
        let mut frames = self.frames.range((c.next - self.base) as usize..);
        while let Some(frame) = frames.next().filter(|_| room) {
            room = fits(frame);
            chunk.push(frame.clone());
        }
        c.next += (chunk.len() - carried) as u64;
        chunk
    }

    /// The owner gives `id` up with what its write left unsent: to nobody
    /// if nothing is left, else to its writer — `true`: wake it.
    pub fn release(&mut self, id: u64, leftover: Option<F>) -> bool {
        let end = self.end();
        let Some(c) = self.members.get_mut(&id) else { return false };
        c.leftover = leftover.map(Box::new);
        let left = c.next < end || c.leftover.is_some();
        c.owner = if left { Owner::Writer } else { Owner::Nobody };
        left
    }

    /// `id`'s owner and what a short write to it left unsent, until it is
    /// taken; `None` once `id` is not a member.
    pub fn owner(&self, id: u64) -> Option<(Owner, Option<&F>)> {
        self.members.get(&id).map(|c| (c.owner, c.leftover.as_deref()))
    }

    /// Whether `id`'s writer owns it; `None` once `id` is not a member.
    pub fn writer_owns(&self, id: u64) -> Option<bool> {
        self.owner(id).map(|(owner, _)| owner == Owner::Writer)
    }

    /// `(member, frames it has not consumed)` in id order.
    pub fn backlog(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let end = self.end();
        self.members.iter().map(move |(&id, c)| (id, end - c.next))
    }

    /// Drop every frame below the slowest cursor.
    pub fn trim(&mut self) {
        let keep_from = self.members.values().map(|c| c.next).min().unwrap_or(self.end());
        self.frames.drain(..(keep_from - self.base) as usize);
        self.base = keep_from;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Log = SeqLog<String, &'static str>;

    fn view(log: &Log) -> String {
        let ids: Vec<String> = log.members().map(|(id, _)| id.to_string()).collect();
        format!("view{}[{}]", log.view_id(), ids.join(","))
    }

    fn total(log: &mut Log, sender: u64) -> Option<u64> {
        log.total(sender, |seq| format!("t{seq}/{sender}"))
    }

    fn pending(log: &Log, id: u64) -> Vec<String> {
        log.pending(id).expect("member").1.cloned().collect()
    }

    #[test]
    fn seqs_are_dense_and_frames_land_in_call_order() {
        let mut log = Log::default();
        log.admit(1, "a", 0, view);
        log.admit(2, "b", 0, view);
        assert_eq!(total(&mut log, 2), Some(0));
        assert!(log.fifo(1, "f/1".into()));
        assert_eq!(total(&mut log, 1), Some(1));
        assert_eq!(log.next_seq(), 2);
        let all = ["view1[1]", "view2[1,2]", "t0/2", "f/1", "t1/1"];
        assert_eq!(pending(&log, 1), all);
        assert_eq!(pending(&log, 2), all);
    }

    #[test]
    fn frames_from_unknown_or_evicted_senders_are_refused() {
        let mut log = Log::default();
        log.admit(1, "a", 0, view);
        log.admit(2, "b", 0, view);
        assert_eq!(log.evict(&[2], view), vec!["b"]);
        let before = (log.end(), log.next_seq(), log.view_id());
        for stranger in [2, 9] {
            assert_eq!(total(&mut log, stranger), None);
            assert!(!log.fifo(stranger, "f".into()));
        }
        assert_eq!((log.end(), log.next_seq(), log.view_id()), before, "log changed");
        assert!(log.pending(2).is_none(), "an evicted member has no cursor");
    }

    #[test]
    fn evict_appends_one_view_for_all_ids_and_none_for_nobody() {
        let mut log = Log::default();
        for (id, conn) in [(1, "a"), (2, "b"), (3, "c")] {
            log.admit(id, conn, 0, view);
        }
        let end = log.end();
        assert_eq!(log.evict(&[3, 7, 2], view), vec!["c", "b"]);
        assert_eq!(log.end(), end + 1);
        assert_eq!(pending(&log, 1).last().expect("view"), "view4[1]");
        assert!(log.evict(&[7, 2], view).is_empty());
        assert!(log.evict(&[], view).is_empty());
        assert_eq!((log.end(), log.view_id()), (end + 1, 4), "evicting nobody appended");
    }

    #[test]
    fn joiner_from_zero_replays_the_log_and_from_end_starts_at_its_view() {
        let mut log = Log::default();
        log.admit(1, "a", 0, view);
        total(&mut log, 1);
        log.admit(2, "replay", 0, view);
        assert_eq!(pending(&log, 2), ["view1[1]", "t0/1", "view2[1,2]"]);
        log.admit(3, "fresh", log.end(), view);
        assert_eq!(pending(&log, 3), ["view3[1,2,3]"]);
    }

    #[test]
    fn a_readmitted_replica_gets_its_next_incarnation_never_an_old_id() {
        let mut log = Log::default();
        let first = log.admit(7, "a", 0, view).expect("fits");
        assert_eq!(first, 7);
        let _ = log.evict(&[first], view);
        log.trim();
        let second = log.admit(7, "b", 0, view).expect("fits");
        let third = log.admit(7, "c", 0, view).expect("fits");
        let ids = [second, third].map(MemberId::new);
        assert_eq!(ids.map(|m| (m.replica().raw(), m.incarnation())), [(7, 1), (7, 2)]);
        assert_eq!(pending(&log, third).last().expect("view"), &format!("view4[{second},{third}]"));
        let before = (log.end(), log.view_id());
        assert_eq!(log.admit(1 << MemberId::INCARNATION_SHIFT, "wide", 0, view), None);
        assert_eq!((log.end(), log.view_id()), before, "a refused join changed the log");
    }

    #[test]
    fn trim_stops_at_the_slowest_cursor_and_indices_stay_absolute() {
        let mut log = Log::default();
        log.admit(1, "fast", 0, view);
        log.admit(2, "slow", 0, view);
        for _ in 0..8 {
            total(&mut log, 1);
        }
        log.advance(1, 10);
        log.advance(2, 3);
        log.trim();
        assert_eq!((log.end(), log.retained()), (10, 7));
        assert_eq!(log.pending(2).expect("member").0, 3);
        assert_eq!(pending(&log, 2).first().expect("frame"), "t1/1", "index 3 is still index 3");
        assert_eq!(log.backlog().collect::<Vec<_>>(), [(1, 0), (2, 7)]);
        // A cursor cannot run past the end, and a joiner cannot be handed
        // what was trimmed.
        log.advance(1, 99);
        assert_eq!(log.pending(1).expect("member").0, 10);
        log.admit(3, "late", 0, view);
        assert_eq!(log.pending(3).expect("member").0, 3);
        // The slow member leaves: nothing holds the log back any more.
        let _ = log.evict(&[2, 3], view);
        log.advance(1, 99);
        log.trim();
        assert_eq!((log.end(), log.retained()), (12, 0));
    }
}
