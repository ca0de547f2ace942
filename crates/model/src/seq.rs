//! The sequencer model: sirep-gcs's [`SeqLog`] driven as the TCP shell's
//! threads drive it (`gcs/src/tcp/seq.rs`; DESIGN.md §17), one lock hold or
//! socket write per transition: appenders (`fan_out`), replica 2's join
//! (`handle_join`), an eviction (`evict_and_shutdown`) and each member's
//! writer (`writer_loop`). Frames are [`Span`]s of log indices; a short
//! write puts whole frames out. A write to a shut socket fails; the shell's
//! eviction after it appends and (S3 holding) claims nothing, so the model
//! skips it. Checked after each transition: **S1** a member's socket, the
//! frames a thread holds for it, its leftover and its cursor make one
//! gap-free, duplicate-free slice of the log; **S2** only the owner takes or
//! writes, and no other thread holds the member; **S3** a member behind or
//! with a leftover has an owner, and every live member ends with the whole
//! log; **S4** an evicted member is never taken from, and its writer exits.

use crate::srca::Mutation;
use crate::{Prop, ProtocolModel, TraceEvent, Violation};
use sirep_gcs::{Owner, SeqLog};
use std::collections::BTreeSet;

/// Log indices `from..to`: a frame, or a chunk (once sent, its rest).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Span {
    pub from: u64,
    pub to: u64,
}

/// The shell's `WRITE_CHUNK` (in frames) and `PASSES`. Members 0 and 1
/// start formed, `JOINER` joins; thread `m` is member `m`'s writer.
const CHUNK: u64 = 2;
const PASSES: u8 = 2;
const JOINER: u64 = 2;

/// The frame appended next.
fn view(log: &SeqLog<Span, u64>) -> Span {
    Span { from: log.end(), to: log.end() + 1 }
}

/// A member's writer, or a connection appending a frame from a member,
/// `JOINER`'s join, or an eviction (once done: of whom).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Job {
    Writer,
    Total(u64),
    Join,
    Evict(Vec<u64>),
}

/// A fan-out's holds (`Fan`: append, claim, take; `Collect`: results, then
/// takes or releases) and sends; the join's `Welcome` write and `HandBack`;
/// an eviction's `Shutdown`; a writer's wait (`Idle`) and holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Pc {
    Fan,
    Send,
    Collect,
    Welcome,
    HandBack,
    Shutdown,
    Idle,
    Check,
    Take,
    Release,
    Done,
}

#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Thread {
    pub pc: Pc,
    pub job: Job,
    /// `fan_out`'s `mine`; and a join thread owns its joiner until `HandBack`.
    pub mine: Vec<u64>,
    pub joiner: bool,
    /// This pass's chunks: member, span (once sent, what is left), sent.
    pub sends: Vec<(u64, Span, bool)>,
    pub pass: u8,
}

#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct State {
    /// A member's conn is its own id.
    pub log: SeqLog<Span, u64>,
    /// Per replica, once it joined: its socket's end, and whether it is open.
    pub socks: Vec<Option<(u64, bool)>>,
    pub threads: Vec<Thread>,
}

/// Two appenders racing; an append beside the join, and beside an eviction;
/// the join beside the joiner's eviction.
#[must_use]
pub fn seq_scenarios() -> Vec<Vec<Job>> {
    use Job::{Evict, Join, Total};
    let evict = |m| Evict(vec![m]);
    vec![
        vec![Total(0), Total(1)],
        vec![Total(0), Join],
        vec![Total(0), evict(1)],
        vec![Join, evict(2)],
    ]
}

#[derive(Debug, Clone)]
pub struct SeqModel {
    pub jobs: Vec<Job>,
    pub mutations: BTreeSet<Mutation>,
}

type Violations = Vec<Violation>;

impl SeqModel {
    /// A pass's takes, in the hold that ends the previous pass; without a
    /// chunk to send, the fan-out is over.
    fn takes(s: &mut State, t: usize, th: &mut Thread, v: &mut Violations) {
        for m in std::mem::take(&mut th.mine) {
            match s.take(t, m, v) {
                Some(span) => th.sends.push((m, span, false)),
                None => s.hand_back(m, None),
            }
        }
        th.pc = match &th.job {
            _ if !th.sends.is_empty() => Pc::Send,
            Job::Join => Pc::Welcome,
            Job::Evict(gone) if !gone.is_empty() => Pc::Shutdown,
            _ => Pc::Done,
        };
    }

    fn step(&self, s: &mut State, t: usize, choice: u8) -> Violations {
        let (mut v, mut th, m) = (Vec::new(), s.threads[t].clone(), t as u64);
        let has = |mutation| self.mutations.contains(&mutation);
        match (th.pc, &mut th.job) {
            (Pc::Fan, job) => {
                let frame = view(&s.log);
                match job {
                    Job::Total(sender) => {
                        s.log.total(*sender, |_| frame);
                    }
                    Job::Join => {
                        s.log.admit(JOINER, JOINER, 0, view);
                        s.socks[JOINER as usize] = Some((0, true));
                        th.joiner = true;
                    }
                    Job::Evict(ids) => *ids = s.log.evict(ids, view),
                    Job::Writer => unreachable!("a connection"),
                }
                th.mine = if has(Mutation::SkipClaim) { Vec::new() } else { s.log.claim() };
                if has(Mutation::DoubleClaim) {
                    th.mine = s.log.backlog().filter(|&(_, n)| n > 0).map(|(id, _)| id).collect();
                }
                Self::takes(s, t, &mut th, &mut v);
            }
            (Pc::Send, job) => {
                let writer = *job == Job::Writer;
                let i = th.sends.iter().position(|&(_, _, sent)| !sent).expect("a chunk to send");
                let (to, span, _) = th.sends[i];
                if s.log.contains(to) {
                    s.check_owner(t, to, &mut v);
                }
                let k = if choice == 0 { span.to - span.from } else { u64::from(choice - 1) };
                let rest = s.write(to, span, k, &mut v);
                th.sends[i] = (to, rest.unwrap_or(Span { from: span.to, ..span }), true);
                th.pc = match rest {
                    _ if writer => rest.map_or(Pc::Done, |_| Pc::Take),
                    _ if i + 1 < th.sends.len() => Pc::Send,
                    _ => Pc::Collect,
                };
                if writer {
                    th.sends.clear();
                }
            }
            (Pc::Collect, _) => {
                for (to, rest, _) in std::mem::take(&mut th.sends) {
                    if rest.from == rest.to {
                        th.mine.push(to);
                    } else {
                        s.hand_back(to, Some(rest).filter(|_| !has(Mutation::ReleaseBeforeCarry)));
                    }
                }
                th.pass += 1;
                if th.pass == PASSES {
                    th.mine.drain(..).for_each(|m| s.hand_back(m, None));
                }
                Self::takes(s, t, &mut th, &mut v);
            }
            (Pc::Welcome, _) => {
                s.check_owner(t, JOINER, &mut v);
                s.threads[JOINER as usize].pc = Pc::Check;
                th.pc = Pc::HandBack;
            }
            (Pc::HandBack, _) => {
                s.hand_back(JOINER, None);
                (th.joiner, th.pc) = (false, Pc::Done);
            }
            (Pc::Shutdown, Job::Evict(gone)) => {
                for &g in gone.iter() {
                    s.notify(g);
                    s.socks[g as usize] = s.socks[g as usize].map(|(next, _)| (next, false));
                }
                th.pc = Pc::Done;
            }
            (Pc::Check | Pc::Release, _) => {
                if th.pc == Pc::Release {
                    s.hand_back(m, None);
                }
                let owned = s.log.writer_owns(m);
                th.pc = owned.map_or(Pc::Done, |owned| if owned { Pc::Take } else { Pc::Idle });
            }
            (Pc::Take, _) => match s.take(t, m, &mut v) {
                Some(span) => (th.sends, th.pc) = (vec![(m, span, false)], Pc::Send),
                None => th.pc = Pc::Release,
            },
            _ => unreachable!("not enabled"),
        }
        s.threads[t] = th;
        s.check(&mut v);
        v
    }
}

impl State {
    /// `release`, and wake the writer if the member went to it.
    fn hand_back(&mut self, m: u64, leftover: Option<Span>) {
        if self.log.release(m, leftover) {
            self.notify(m);
        }
    }

    fn notify(&mut self, m: u64) {
        let writer = &mut self.threads[m as usize].pc;
        if *writer == Pc::Idle {
            *writer = Pc::Check;
        }
    }

    /// S2: thread `t`, about to take from or write to `m`, owns it alone.
    fn check_owner(&self, t: usize, m: u64, v: &mut Violations) {
        let owner =
            if self.threads[t].job == Job::Writer { Owner::Writer } else { Owner::Appender };
        if let Some((o, _)) = self.log.owner(m).filter(|&(o, _)| o != owner) {
            v.push(Violation::of(Prop::OneWriter, format!("thread {t} takes {m}, owned {o:?}")));
        }
        let holds = |th: &Thread| {
            (th.joiner && m == JOINER)
                || th.mine.contains(&m)
                || th.sends.iter().any(|&(to, ..)| to == m)
        };
        let other = self.threads.iter().enumerate().position(|(u, th)| u != t && holds(th));
        if let Some(u) = other {
            v.push(Violation::of(Prop::OneWriter, format!("threads {t} and {u} both hold {m}")));
        }
    }

    /// Thread `t` takes `m`'s next chunk: S2 and S4.
    fn take(&mut self, t: usize, m: u64, v: &mut Violations) -> Option<Span> {
        self.check_owner(t, m, v);
        let (member, mut frames) = (self.log.contains(m), 0);
        let chunk = self.log.take(m, |span| {
            frames += span.to - span.from;
            frames < CHUNK
        });
        if !member && !chunk.is_empty() {
            v.push(Violation::of(Prop::EvictionEnds, format!("evicted {m} was taken from")));
        }
        Some(Span { from: chunk.first()?.from, to: chunk.last()?.to })
    }

    /// Put the first `k` frames of `span` on `m`'s socket (S1); what is
    /// left, or `None` once the socket is shut.
    fn write(&mut self, m: u64, span: Span, k: u64, v: &mut Violations) -> Option<Span> {
        let (next, _) = self.socks[m as usize].filter(|&(_, open)| open)?;
        if span.from != next {
            v.push(Violation::of(
                Prop::StreamSlice,
                format!("{m}'s socket at {next} got {span:?}"),
            ));
        }
        self.socks[m as usize] = Some((span.from + k, true));
        Some(Span { from: span.from + k, to: span.to })
    }

    /// S1's accounting and S3, at the end of every hold.
    fn check(&self, v: &mut Violations) {
        let end = self.log.end();
        for (m, _) in self.log.members() {
            let cursor = self.log.pending(m).map_or(end, |p| p.0);
            let (owner, leftover) = self.log.owner(m).expect("a member");
            if (cursor < end || leftover.is_some()) && owner == Owner::Nobody {
                v.push(Violation::of(Prop::Owned, format!("{m} is behind with no owner")));
            }
            let held = self.threads.iter().flat_map(|th| &th.sends).filter(|&&(to, ..)| to == m);
            let mut at = self.socks[m as usize].map(|(next, _)| next);
            for span in held.map(|&(_, span, _)| span).chain(leftover.copied()) {
                at = at.filter(|&at| at == span.from).map(|_| span.to);
            }
            if at != Some(cursor) {
                let detail = format!("{m}'s stream breaks between its socket and cursor {cursor}");
                v.push(Violation::of(Prop::StreamSlice, detail));
            }
        }
    }
}

/// (thread, choice, step): a send's choice is 0 for all of the chunk,
/// `1 + k` for a short write of `k` frames.
pub type Label = (u8, u8, Pc);

impl ProtocolModel for SeqModel {
    type State = State;
    type Key = State;
    type Label = Label;

    fn initial(&self) -> State {
        let mut log = SeqLog::default();
        for r in 0..JOINER {
            log.admit(r, r, 0, view);
        }
        for r in 0..JOINER {
            log.take(r, |_| true);
            log.release(r, None);
        }
        let new = |pc, job| Thread { pc, job, mine: vec![], joiner: false, sends: vec![], pass: 0 };
        let writers = (0..=JOINER).map(|_| new(Pc::Idle, Job::Writer));
        let threads = writers.chain(self.jobs.iter().map(|job| new(Pc::Fan, job.clone())));
        let sock = Some((log.end(), true));
        State { log, socks: vec![sock, sock, None], threads: threads.collect() }
    }

    fn key(&self, s: &State) -> State {
        s.clone()
    }

    fn enabled(&self, s: &State) -> Vec<Label> {
        let mut out = Vec::new();
        for (t, th) in s.threads.iter().enumerate() {
            if !matches!(th.pc, Pc::Idle | Pc::Done) {
                out.push((t as u8, 0, th.pc));
            }
            // An appender's send to an open socket may also be short.
            let open = |to: u64| s.socks[to as usize].is_some_and(|(_, open)| open);
            let unsent = th.sends.iter().find(|&&(to, _, sent)| !sent && open(to));
            if let Some(&(_, span, _)) = unsent.filter(|_| th.job != Job::Writer) {
                out.extend((0..(span.to - span.from) as u8).map(|k| (t as u8, 1 + k, th.pc)));
            }
        }
        out
    }

    fn apply(&self, s: &State, l: &Label) -> (State, Violations, Vec<TraceEvent>) {
        let mut s = s.clone();
        let v = self.step(&mut s, usize::from(l.0), l.1);
        (s, v, Vec::new())
    }

    fn terminal_check(&self, s: &State) -> Violations {
        let (mut v, end) = (Vec::new(), s.log.end());
        for (m, (next, _)) in s.socks.iter().enumerate().filter_map(|(m, sock)| Some((m, (*sock)?)))
        {
            let (live, writer) = (s.log.contains(m as u64), s.threads[m].pc);
            if live && next != end {
                let detail = format!("live {m} ends with {next} of the log's {end} frames");
                v.push(Violation::of(Prop::Owned, detail));
            }
            if !live && writer != Pc::Done {
                v.push(Violation::of(
                    Prop::EvictionEnds,
                    format!("evicted {m}'s writer is {writer:?}"),
                ));
            }
        }
        v
    }

    fn describe(&self, &(t, choice, pc): &Label) -> String {
        let job = self.jobs.get(usize::from(t).wrapping_sub(JOINER as usize + 1));
        let short =
            if choice > 0 { format!(", short: {} frames", choice - 1) } else { String::new() };
        format!("thread {t} ({:?}) {pc:?}{short}", job.unwrap_or(&Job::Writer))
    }
}
