//! # sirep-gcs
//!
//! A group communication system (GCS) providing the primitives SI-Rep's
//! decentralized middleware needs (paper §5.2):
//!
//! - **uniform reliable, total order multicast** — all members deliver all
//!   messages in the same order; a message delivered by any member (even one
//!   that crashes immediately after) is delivered by all survivors, and
//!   always *before* they learn about the sender's crash;
//! - **FIFO multicast** — used by the reimplemented table-level-locking
//!   baseline of [Jiménez-Peris et al., ICDCS'02] for writeset shipping;
//! - **membership views** — crashes are detected and surviving members
//!   receive consistent view-change notifications.
//!
//! The protocol layer is written against the transport traits in
//! [`traits`] ([`Group`] / [`Member`] / [`Cast`]); two backends implement
//! them:
//!
//! - [`SimGroup`] — the in-process simulated network the paper's
//!   evaluation is reproduced on: deterministic, seeded fault injection,
//!   model-time latency (the paper's Spread measurements — ≤3 ms per
//!   uniform multicast on a LAN — are a configuration knob scaled through
//!   [`sirep_common::TimeScale`]; see `DESIGN.md` §2 for the substitution
//!   argument).
//! - [`TcpGroup`] — a real network tier: one [`Sequencer`] service plus
//!   length-prefixed frames over `std::net` sockets, same delivery
//!   contract (DESIGN.md §14).
//!
//! ```
//! use sirep_gcs::{Cast, Delivery, GroupConfig, Member, SimGroup};
//!
//! let group: SimGroup<String> = SimGroup::new(GroupConfig::instant());
//! let a = group.join();
//! let b = group.join();
//! // Both joins delivered views; drain them.
//! while let Some(Delivery::ViewChange(_)) = a.try_recv() {}
//! while let Some(Delivery::ViewChange(_)) = b.try_recv() {}
//!
//! a.handle().multicast_total("hello".to_owned()).unwrap();
//! match b.recv().unwrap() {
//!     Delivery::TotalOrder { msg, .. } => assert_eq!(msg, "hello"),
//!     other => panic!("unexpected: {other:?}"),
//! }
//! // The sender delivers its own message too.
//! assert!(matches!(a.recv().unwrap(), Delivery::TotalOrder { .. }));
//! ```

pub mod fault;
pub mod group;
pub mod seqlog;
pub mod tcp;
pub mod traits;

pub use fault::{FaultConfig, FaultDecision, FaultRecord, NETWORK_REPLICA};
pub use group::{GroupConfig, SimGroup, SimHandle, SimMember};
pub use seqlog::{Owner, SeqLog};
pub use tcp::{probe_seq_time, query_seq_stats, SeqStats, Sequencer, TcpCast, TcpGroup, TcpMember};
pub use traits::{Cast, Delivery, GcsError, Group, Member, View, HELD_SEND_SEQ};

#[cfg(test)]
mod conformance_tests;
#[cfg(test)]
mod group_tests;
