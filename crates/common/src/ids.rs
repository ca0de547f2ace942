//! Strongly-typed identifiers used across the system.
//!
//! The paper uses several distinct id spaces which are easy to confuse when
//! they are all bare integers:
//!
//! - a **replica** (a middleware/database pair, `R^k` / `M^k` in the paper),
//! - a **local transaction id** assigned by a database replica,
//! - a **global transaction id** (`T.tid`) assigned at validation time, which
//!   is identical at every replica because validation runs in total order,
//! - a **client** and its **session** (one JDBC connection).
//!
//! Each gets its own newtype so the compiler keeps them apart.

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u64);

        impl $name {
            /// Construct from a raw integer.
            pub const fn new(raw: u64) -> Self {
                Self(raw)
            }

            /// The raw integer value.
            pub const fn raw(self) -> u64 {
                self.0
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u64> for $name {
            fn from(raw: u64) -> Self {
                Self(raw)
            }
        }
    };
}

id_type!(
    /// A middleware/database replica pair (`R^k` in the paper).
    ReplicaId,
    "R"
);
id_type!(
    /// A transaction id local to one database replica; assigned at `begin`.
    TxnId,
    "T"
);
id_type!(
    /// The global transaction id `T.tid`, assigned in validation (total)
    /// order. Identical at every replica for the same transaction.
    GlobalTid,
    "G"
);
id_type!(
    /// A client program (one emulated browser / terminal).
    ClientId,
    "C"
);
id_type!(
    /// One client connection to a middleware replica. A client that fails
    /// over to another replica keeps its `ClientId` but gets a new session.
    SessionId,
    "S"
);
id_type!(
    /// A member endpoint inside the group communication system. The id *is*
    /// the member's identity `(replica, incarnation)`: the sequencer core
    /// (`SeqLog::admit`) mints it from the logical replica the joiner names
    /// and the number of times that replica joined before, so every view is
    /// self-describing — which incarnation of which replica it adds or
    /// drops is read off the ids, never counted or looked up.
    MemberId,
    "M"
);

impl MemberId {
    /// Replica ids occupy the bits below this, the join count the rest.
    pub const INCARNATION_SHIFT: u32 = 32;

    /// The id of `replica`'s `incarnation`-th re-join (0 = first join).
    /// `replica` must fit below [`MemberId::INCARNATION_SHIFT`].
    pub const fn of(replica: u64, incarnation: u64) -> MemberId {
        MemberId((incarnation << Self::INCARNATION_SHIFT) | replica)
    }

    /// The logical replica this member is an incarnation of.
    pub const fn replica(self) -> ReplicaId {
        ReplicaId(self.0 & ((1 << Self::INCARNATION_SHIFT) - 1))
    }

    /// How many times that replica had joined the group before this member.
    pub const fn incarnation(self) -> u64 {
        self.0 >> Self::INCARNATION_SHIFT
    }
}

impl GlobalTid {
    /// The sentinel "no transaction validated yet" value; `T.cert` starts
    /// here (the paper initializes `lastvalidated_tid := 0`).
    pub const ZERO: GlobalTid = GlobalTid(0);

    /// The next tid in validation order.
    #[must_use]
    pub fn next(self) -> GlobalTid {
        GlobalTid(self.0 + 1)
    }
}

impl ReplicaId {
    /// Convenience for indexing `Vec`s keyed by replica.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The unique, client-visible transaction identifier a middleware replica
/// assigns when a transaction starts. The paper: *"the replica assigns a
/// unique transaction identifier and returns it to the driver [...] the
/// identifier is forwarded to the remote middleware replicas together with
/// the writeset"*.
///
/// This is the one canonical transaction identity: core's protocol
/// messages, the journal, and the wire codec all carry this same type (it
/// lives here because the journal crate cannot depend on core).
///
/// The sequence number's top bits carry the origin's **incarnation** (how
/// many times that replica id has re-joined after a crash — an extension
/// needed once online recovery exists): in-doubt resolution must be able to
/// tell "this transaction's origin incarnation has departed, and uniform
/// delivery says its writeset would already be here" apart from "the origin
/// crashed once long ago but this transaction belongs to its current, live
/// incarnation".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct XactId {
    /// The replica the transaction was local at.
    pub origin: ReplicaId,
    /// Incarnation (top [`XactId::INCARNATION_SHIFT`] bits) + per-origin
    /// sequence number.
    pub seq: u64,
}

impl XactId {
    pub const INCARNATION_SHIFT: u32 = 48;

    pub const fn new(origin: ReplicaId, seq: u64) -> XactId {
        XactId { origin, seq }
    }

    /// The origin incarnation this transaction was created under.
    pub fn incarnation(&self) -> u64 {
        self.seq >> Self::INCARNATION_SHIFT
    }

    /// First sequence value for an incarnation.
    pub fn seq_base(incarnation: u64) -> u64 {
        incarnation << Self::INCARNATION_SHIFT
    }
}

impl fmt::Display for XactId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}.{}#{}",
            self.origin,
            self.incarnation(),
            self.seq & ((1 << Self::INCARNATION_SHIFT) - 1)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_distinct_types_with_ordering() {
        let a = GlobalTid::new(1);
        let b = GlobalTid::new(2);
        assert!(a < b);
        assert_eq!(a.next(), b);
        assert_eq!(GlobalTid::ZERO.raw(), 0);
    }

    #[test]
    fn display_uses_prefix() {
        assert_eq!(ReplicaId::new(3).to_string(), "R3");
        assert_eq!(format!("{:?}", TxnId::new(7)), "T7");
        assert_eq!(GlobalTid::from(9).to_string(), "G9");
        assert_eq!(ClientId::new(1).to_string(), "C1");
        assert_eq!(SessionId::new(2).to_string(), "S2");
        assert_eq!(MemberId::new(4).to_string(), "M4");
    }

    #[test]
    fn member_id_is_replica_and_incarnation() {
        let first = MemberId::of(7, 0);
        assert_eq!((first.raw(), first.replica(), first.incarnation()), (7, ReplicaId::new(7), 0));
        let third = MemberId::of(7, 2);
        assert_eq!(third.raw(), (2 << MemberId::INCARNATION_SHIFT) | 7);
        assert_eq!((third.replica(), third.incarnation()), (ReplicaId::new(7), 2));
        assert_ne!(first, third);
    }

    #[test]
    fn replica_index_roundtrip() {
        assert_eq!(ReplicaId::new(5).index(), 5);
    }

    #[test]
    fn xact_id_ordering_and_display() {
        let a = XactId::new(ReplicaId::new(0), 5);
        let b = XactId::new(ReplicaId::new(1), 1);
        assert!(a < b);
        assert_eq!(a.to_string(), "R0.0#5");
        assert_eq!(a.incarnation(), 0);
    }

    #[test]
    fn incarnation_encoding() {
        let seq = XactId::seq_base(3) + 42;
        let x = XactId::new(ReplicaId::new(2), seq);
        assert_eq!(x.incarnation(), 3);
        assert_eq!(x.to_string(), "R2.3#42");
        // Incarnations don't collide across sequence growth.
        assert!(XactId::seq_base(1) > XactId::seq_base(0) + 1_000_000_000);
    }
}
