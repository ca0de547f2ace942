//! The §5.4 table, cell by cell, against the one failover machine
//! (`driver::failover`) over a scripted link: no cluster, no sockets.
//!
//! Rows: what was in flight when the replica died × how the death showed ×
//! what the survivors know. Each cell pins the exact client-visible result,
//! how many inquiries it took, and whether the statement was run again.

use si_rep::common::{AbortReason, DbError, ReplicaId};
use si_rep::core::{InDoubt, Outcome, XactId};
use si_rep::driver::{Connector, Failover, Link, INQUIRY_ATTEMPTS};
use si_rep::sql::ExecResult;
use std::cell::Cell;
use std::rc::Rc;

#[derive(Debug, Clone, Copy, PartialEq)]
enum InFlight {
    Nothing,
    OpenTxn,
    Commit,
    AutocommitStmt,
}

/// How the client learns that replica 0 died.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Death {
    /// The node answers with a crash-shaped error (it is going down).
    ErrorReply,
    /// The same, from a node that went down before it began a transaction
    /// for the statement.
    ErrorBeforeBegin,
    /// The link breaks; no reply arrives.
    LinkLost,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Survivors {
    /// One survivor, and this is its answer.
    Say(InDoubt),
    /// The first survivor cannot tell; the second says `Committed`.
    UnknownThenCommitted,
    Nobody,
}

/// The scripted world: replica 0 serves until `dead`, then dies as `death`
/// says; replica `k ≥ 1` is a survivor that answers `answers[k - 1]`.
struct World {
    death: Death,
    answers: Vec<InDoubt>,
    dead: Cell<bool>,
    links: Cell<usize>,
    begun: Cell<u64>,
    inquiries: Cell<usize>,
    survivor_execs: Cell<usize>,
}

struct Net(Rc<World>);

/// A session at one scripted replica, faithful to `Session` in what ids it
/// reports: a statement begins a transaction if none is open, and the reply
/// — success or failure — carries the most recently begun id.
struct ScriptedLink {
    world: Rc<World>,
    replica: usize,
    autocommit: bool,
    open: bool,
    last: Option<XactId>,
}

impl World {
    fn new(death: Death, answers: Vec<InDoubt>) -> Rc<World> {
        Rc::new(World {
            death,
            answers,
            dead: Cell::new(false),
            links: Cell::new(0),
            begun: Cell::new(0),
            inquiries: Cell::new(0),
            survivor_execs: Cell::new(0),
        })
    }
}

impl ScriptedLink {
    fn died(&self) -> Option<DbError> {
        (self.replica == 0 && self.world.dead.get()).then(|| match self.world.death {
            Death::ErrorReply | Death::ErrorBeforeBegin => CRASHED,
            Death::LinkLost => LOST,
        })
    }
}

impl Link for ScriptedLink {
    fn exec(&mut self, _sql: &str) -> (Result<ExecResult, DbError>, Option<XactId>) {
        match (self.died(), self.world.death) {
            (Some(e), Death::LinkLost) => return (Err(e), None),
            (Some(e), Death::ErrorBeforeBegin) => return (Err(e), self.last),
            _ => {}
        }
        if !self.open {
            let seq = self.world.begun.get() + 1;
            self.world.begun.set(seq);
            self.last = Some(XactId::new(ReplicaId::new(self.replica as u64), seq));
        }
        if let Some(e) = self.died() {
            self.open = false;
            return (Err(e), self.last);
        }
        if self.replica > 0 {
            self.world.survivor_execs.set(self.world.survivor_execs.get() + 1);
        }
        self.open = !self.autocommit;
        (Ok(ExecResult::Affected(1)), self.last)
    }

    fn commit(&mut self) -> Result<(), DbError> {
        self.open = false;
        self.died().map_or(Ok(()), Err)
    }

    fn rollback(&mut self) -> Result<(), DbError> {
        self.commit()
    }

    fn set_autocommit(&mut self, on: bool) -> Result<(), DbError> {
        self.autocommit = on;
        self.died().map_or(Ok(()), Err)
    }

    fn inquire(&mut self, _xact: XactId) -> Result<InDoubt, DbError> {
        assert!(self.replica > 0, "the driver asked the replica that died");
        self.world.inquiries.set(self.world.inquiries.get() + 1);
        Ok(self.world.answers[self.replica - 1])
    }
}

impl Connector for Net {
    type Link = ScriptedLink;

    fn connect(&self, avoid: Option<&ScriptedLink>, autocommit: bool) -> Option<ScriptedLink> {
        let replica = self.0.links.get();
        assert_eq!(avoid.map_or(0, |l| l.replica + 1), replica, "failover goes to the next one");
        if replica > self.0.answers.len() {
            return None;
        }
        self.0.links.set(replica + 1);
        Some(ScriptedLink { world: self.0.clone(), replica, autocommit, open: false, last: None })
    }
}

const CRASHED: DbError = DbError::Aborted(AbortReason::ReplicaCrashed);
const LOST: DbError = DbError::ConnectionLost { in_doubt: false };

/// What the client sees: `Ok(Some(_))` from a statement, `Ok(None)` from a
/// commit.
type Seen = Result<Option<ExecResult>, DbError>;

fn run_cell(in_flight: InFlight, death: Death, survivors: Survivors) -> (Seen, Rc<World>, usize) {
    let answers = match survivors {
        Survivors::Say(answer) => vec![answer],
        Survivors::UnknownThenCommitted => {
            vec![InDoubt::Unknown, InDoubt::Known(Outcome::Committed)]
        }
        Survivors::Nobody => vec![],
    };
    let world = World::new(death, answers);
    let net = Net(world.clone());
    let mut conn = Failover::connect(&net, INQUIRY_ATTEMPTS).expect("replica 0 is up");
    // A committed transaction first, so the connection already remembers an
    // id that is *not* the one in flight.
    conn.set_autocommit(in_flight == InFlight::AutocommitStmt).unwrap();
    conn.execute("earlier").unwrap();
    conn.commit().unwrap();
    if matches!(in_flight, InFlight::OpenTxn | InFlight::Commit) {
        conn.execute("first statement").unwrap();
    }
    world.dead.set(true);
    let seen = match in_flight {
        InFlight::Commit => conn.commit().map(|()| None),
        _ => conn.execute("statement").map(Some),
    };
    if survivors != Survivors::Nobody {
        // Whatever the client was told, the connection is usable.
        conn.execute("next").expect("statement on the failed-over connection");
        conn.commit().expect("commit on the failed-over connection");
    }
    let failovers = conn.failovers();
    (seen, world, failovers)
}

#[test]
fn every_cell_of_the_failover_table() {
    use InDoubt::{Known, NeverReceived};
    use InFlight::{AutocommitStmt, Commit, Nothing, OpenTxn};
    use Survivors::{Nobody, Say, UnknownThenCommitted};
    let all_survivors = [
        Say(Known(Outcome::Committed)),
        Say(Known(Outcome::Aborted)),
        Say(NeverReceived),
        UnknownThenCommitted,
        Nobody,
    ];
    let ran = Ok(Some(ExecResult::Affected(1)));
    for in_flight in [Nothing, OpenTxn, Commit, AutocommitStmt] {
        for death in [Death::ErrorReply, Death::ErrorBeforeBegin, Death::LinkLost] {
            for survivors in all_survivors {
                // (client-visible result, inquiries, failovers)
                let want: (Seen, usize, usize) = match (in_flight, death, survivors) {
                    // Nothing in flight: the statement is replayed, unnoticed.
                    (Nothing, _, Nobody) => (Err(LOST), 0, 0),
                    (Nothing, _, _) => (ran.clone(), 0, 1),
                    // An open transaction dies with its replica.
                    (OpenTxn, _, Nobody) => (Err(LOST), 0, 0),
                    (OpenTxn, _, _) => (Err(CRASHED), 0, 1),
                    // A submitted commit is resolved by id at a survivor.
                    (Commit, _, Say(Known(Outcome::Committed))) => (Ok(None), 1, 1),
                    (Commit, _, Say(Known(Outcome::Aborted))) => {
                        (Err(DbError::Aborted(AbortReason::ValidationFailure)), 1, 1)
                    }
                    (Commit, _, Say(NeverReceived)) => (Err(CRASHED), 1, 1),
                    (Commit, _, UnknownThenCommitted) => (Ok(None), 2, 2),
                    // An autocommit statement the node began no transaction
                    // for (its error reply carries the previous id) is not
                    // in doubt either.
                    (AutocommitStmt, Death::ErrorBeforeBegin, Nobody) => (Err(LOST), 0, 0),
                    (AutocommitStmt, Death::ErrorBeforeBegin, _) => (ran.clone(), 0, 1),
                    (Commit | AutocommitStmt, _, Nobody) => (Err(DbError::Unavailable), 0, 0),
                    // So is an autocommit statement whose error reply names the
                    // transaction begun for it: committed → not run again
                    // (the row count is gone); committed nowhere → replayed.
                    (AutocommitStmt, Death::ErrorReply, Say(Known(Outcome::Committed))) => {
                        (Ok(Some(ExecResult::Affected(0))), 1, 1)
                    }
                    (AutocommitStmt, Death::ErrorReply, UnknownThenCommitted) => {
                        (Ok(Some(ExecResult::Affected(0))), 2, 2)
                    }
                    (AutocommitStmt, Death::ErrorReply, _) => (ran.clone(), 1, 1),
                    // ... unless no reply arrived: no id, nothing to ask.
                    (AutocommitStmt, Death::LinkLost, _) => {
                        (Err(DbError::ConnectionLost { in_doubt: true }), 0, 1)
                    }
                    (_, _, Say(InDoubt::Unknown)) => unreachable!("not a column"),
                };
                let cell = format!("{in_flight:?} x {death:?} x {survivors:?}");
                let (seen, world, failovers) = run_cell(in_flight, death, survivors);
                assert_eq!(seen, want.0, "{cell}: client-visible result");
                assert_eq!(world.inquiries.get(), want.1, "{cell}: inquiries");
                assert_eq!(failovers, want.2, "{cell}: failovers");
                // The statement ran at a survivor exactly when the client was
                // handed its result; "next" ran wherever anyone survived.
                let replayed = usize::from(seen == ran);
                let next = usize::from(survivors != Nobody);
                assert_eq!(world.survivor_execs.get(), replayed + next, "{cell}: replays");
            }
        }
    }
}
