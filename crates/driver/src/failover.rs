//! The §5.4 failover machine, written once over a [`Link`] to one replica.
//!
//! What the client sees when its replica dies depends only on what was in
//! flight on the connection:
//!
//! | in flight when the replica died | what the driver does | the client sees |
//! |---|---|---|
//! | nothing | reconnects, replays the request | the request's result |
//! | an open transaction | reconnects; the transaction is lost | `Aborted(ReplicaCrashed)`, connection usable |
//! | a submitted commit (or an autocommit statement that began a transaction) | reconnects, asks survivors for the outcome by transaction id | `Committed` → success; `Aborted` → `Aborted(ValidationFailure)`; `NeverReceived` → `Aborted(ReplicaCrashed)` for a commit, a replay for a statement |
//!
//! Uniform delivery makes a survivor's answer final. A survivor that cannot
//! tell within its bound ([`InDoubt::Unknown`]) or dies too sends the driver
//! on to the next one; after `inquiry_attempts` rounds, or with nobody left
//! to ask, the outcome is unknowable from here and the result is the
//! terminal [`DbError::Unavailable`]. With nothing in doubt and nobody left
//! the result is `ConnectionLost { in_doubt: false }`.
//!
//! A replica is taken to have died when a reply is crash-shaped
//! (`is_crash`): the node said it is going down, or the link broke.
//!
//! **The one weakening.** The in-doubt id rides on the `exec` reply. When the
//! *link* to an autocommit statement's replica breaks before any reply
//! arrives, the client has no id to ask about and the implicit commit may or
//! may not have happened: the result is `ConnectionLost { in_doubt: true }`,
//! which callers must not blindly retry. Only the TCP link can lose a reply;
//! an error *reply* always carries the id.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use sirep_common::{AbortReason, DbError};
use sirep_core::{InDoubt, Outcome, XactId};
use sirep_sql::ExecResult;
use std::time::Duration;

/// First back-off step; doubles per step up to [`BACKOFF_CAP`].
const BACKOFF_BASE: Duration = Duration::from_millis(1);
const BACKOFF_CAP: Duration = Duration::from_millis(100);

/// In-doubt inquiry rounds before [`DbError::Unavailable`], unless set.
pub const INQUIRY_ATTEMPTS: usize = 6;

/// Exponential back-off between inquiry rounds and between connect sweeps.
pub(crate) struct Backoff(Duration);

impl Backoff {
    pub(crate) fn new() -> Backoff {
        Backoff(BACKOFF_BASE)
    }

    pub(crate) fn sleep(&mut self) {
        std::thread::sleep(self.0);
        self.0 = (self.0 * 2).min(BACKOFF_CAP);
    }
}

/// One client session at one replica.
pub trait Link {
    /// Execute a statement. Beside the result — success *or* failure — comes
    /// the id of the transaction most recently begun on this link, if any;
    /// `None` when no reply arrived.
    fn exec(&mut self, sql: &str) -> (Result<ExecResult, DbError>, Option<XactId>);
    fn commit(&mut self) -> Result<(), DbError>;
    fn rollback(&mut self) -> Result<(), DbError>;
    fn set_autocommit(&mut self, on: bool) -> Result<(), DbError>;
    /// Ask this replica what became of `xact`.
    fn inquire(&mut self, xact: XactId) -> Result<InDoubt, DbError>;
}

/// Where links come from: discovery in process, an address list over TCP.
pub trait Connector {
    type Link: Link;
    /// A fresh link in the given autocommit mode, to a replica that is up
    /// and, when there is another, is not the one `avoid` leads to. `None`:
    /// no replica is reachable. (Requests with nothing in flight are
    /// replayed on whatever this returns, so a connector that hands out
    /// links to dead replicas makes them spin.)
    fn connect(&self, avoid: Option<&Self::Link>, autocommit: bool) -> Option<Self::Link>;
}

/// The replica behind the link is gone: it said so, or the link broke.
fn is_crash(e: &DbError) -> bool {
    matches!(
        e,
        DbError::Aborted(AbortReason::ReplicaCrashed | AbortReason::Shutdown)
            | DbError::ConnectionLost { .. }
    )
}

/// A client connection that survives the death of its replica.
pub struct Failover<'c, C: Connector> {
    pub(crate) connector: &'c C,
    pub(crate) link: C::Link,
    inquiry_attempts: usize,
    autocommit: bool,
    /// A statement of a not yet committed transaction has succeeded.
    in_txn: bool,
    /// The most recent transaction begun for this connection, at any replica.
    last_xact: Option<XactId>,
    failovers: usize,
}

impl<'c, C: Connector> Failover<'c, C> {
    pub fn connect(connector: &'c C, inquiry_attempts: usize) -> Result<Self, DbError> {
        let link =
            connector.connect(None, false).ok_or(DbError::ConnectionLost { in_doubt: false })?;
        Ok(Failover {
            connector,
            link,
            inquiry_attempts,
            autocommit: false,
            in_txn: false,
            last_xact: None,
            failovers: 0,
        })
    }

    /// Failovers performed on this connection so far.
    pub fn failovers(&self) -> usize {
        self.failovers
    }

    /// JDBC autocommit mode, preserved across failovers.
    pub fn autocommit(&self) -> bool {
        self.autocommit
    }

    /// Id of the open transaction, if a statement of it has succeeded.
    pub fn xact_id(&self) -> Option<XactId> {
        self.last_xact.filter(|_| self.in_txn)
    }

    pub fn execute(&mut self, sql: &str) -> Result<ExecResult, DbError> {
        loop {
            let (result, xact) = self.link.exec(sql);
            // In autocommit mode the implicit commit runs inside `exec`: a
            // fresh id means a transaction was begun for this statement, so
            // its writeset may have been multicast.
            let submitted = xact.filter(|x| self.autocommit && Some(*x) != self.last_xact);
            self.last_xact = xact.or(self.last_xact);
            let lost = match result {
                Ok(r) => {
                    self.in_txn = !self.autocommit;
                    return Ok(r);
                }
                Err(e) if is_crash(&e) => e,
                Err(e) => return Err(e),
            };
            if std::mem::replace(&mut self.in_txn, false) {
                self.failover(false)?;
                return Err(DbError::Aborted(AbortReason::ReplicaCrashed));
            }
            if let Some(xact) = submitted {
                self.failover(true)?;
                match self.resolve_in_doubt(xact) {
                    // The row count died with the origin; re-running the
                    // statement for it would apply it twice.
                    Ok(()) => return Ok(ExecResult::Affected(0)),
                    Err(DbError::Aborted(_)) => continue,
                    Err(e) => return Err(e),
                }
            }
            // No reply at all to an autocommit statement: see the module docs.
            let blind = self.autocommit && matches!(lost, DbError::ConnectionLost { .. });
            self.failover(blind)?;
            if blind {
                return Err(DbError::ConnectionLost { in_doubt: true });
            }
        }
    }

    pub fn commit(&mut self) -> Result<(), DbError> {
        let submitted = self.xact_id();
        self.in_txn = false;
        match self.link.commit() {
            Err(e) if is_crash(&e) => {
                self.failover(submitted.is_some())?;
                // With no open transaction the commit was a no-op.
                submitted.map_or(Ok(()), |xact| self.resolve_in_doubt(xact))
            }
            other => other,
        }
    }

    /// Roll back the open transaction; a crash achieves that too.
    pub fn rollback(&mut self) -> Result<(), DbError> {
        self.in_txn = false;
        match self.link.rollback() {
            Err(e) if is_crash(&e) => self.failover(false),
            other => other,
        }
    }

    /// Turning autocommit on commits the open transaction first (JDBC).
    pub fn set_autocommit(&mut self, on: bool) -> Result<(), DbError> {
        if on && self.in_txn {
            self.commit()?;
        }
        match self.link.set_autocommit(on) {
            Err(e) if is_crash(&e) => {
                self.autocommit = on;
                self.failover(false)
            }
            other => other.map(|()| self.autocommit = on),
        }
    }

    /// Move to another replica. With nobody reachable the error says whether
    /// an outcome is left unresolved.
    fn failover(&mut self, in_doubt: bool) -> Result<(), DbError> {
        match self.connector.connect(Some(&self.link), self.autocommit) {
            Some(link) => {
                self.link = link;
                self.failovers += 1;
                Ok(())
            }
            None if in_doubt => Err(DbError::Unavailable),
            None => Err(DbError::ConnectionLost { in_doubt: false }),
        }
    }

    /// Ask the current replica, then one survivor after another, what became
    /// of `xact`. If no other replica is reachable between two rounds the
    /// same one is asked again: a recovery may be under way.
    fn resolve_in_doubt(&mut self, xact: XactId) -> Result<(), DbError> {
        let mut backoff = Backoff::new();
        for round in 0..self.inquiry_attempts {
            if round > 0 {
                backoff.sleep();
                let _ = self.failover(true);
            }
            match self.link.inquire(xact) {
                Ok(InDoubt::Known(Outcome::Committed)) => return Ok(()),
                Ok(InDoubt::Known(Outcome::Aborted)) => {
                    return Err(DbError::Aborted(AbortReason::ValidationFailure));
                }
                // Uniform delivery: the writeset reached nobody.
                Ok(InDoubt::NeverReceived) => {
                    return Err(DbError::Aborted(AbortReason::ReplicaCrashed));
                }
                Ok(InDoubt::Unknown) | Err(_) => {}
            }
        }
        Err(DbError::Unavailable)
    }
}
