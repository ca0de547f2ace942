//! # sirep-model: bounded exhaustive model checking for SRCA-Rep
//!
//! A pure-Rust state-space explorer (same spirit as `sirep-lint`) that
//! enumerates **every** interleaving of a small scope of two models. The
//! sequencer model ([`SeqModel`], `seq.rs`) drives the shipped
//! [`SeqLog`](sirep_gcs::SeqLog) the way the TCP sequencer's threads do and
//! checks S1–S4 of `DESIGN.md §17`. The SRCA-Rep model ([`SrcaModel`]) runs
//! 2–4 transactions over 2–3 replicas. Its replicas are sirep-core's own
//! [`ReplicaCore`](sirep_core::ReplicaCore), the state machine the running
//! node drives, and the total-order network is sirep-gcs's own
//! [`SeqLog`](sirep_gcs::SeqLog), the sequencer core both transports run:
//! it mints every member id and view, and its cursors are the replicas'
//! delivery positions. The model supplies only the environment: clients,
//! each replica's committed versions, crash and recovery. Transitions call
//! the cores the way `node.rs` and the sequencer's shells do, one lock hold
//! each:
//! begin (with the §4.3.3 hole wait), local validation (adjustment 1),
//! total-order multicast, certification, applier claims and group commits
//! under the smallest-tid hole gate, the certification-free read-only fast
//! path, crash, in-doubt resolution, and recovery by state transfer.
//!
//! Exploration is breadth-first with canonical-state memoization and a
//! depth bound, so the first violation found is a **minimal**
//! counterexample. Every transition and every terminal state is checked
//! against the properties of `DESIGN.md §17`:
//!
//! - **P1 snapshot-prefix** — a transaction's snapshot is a prefix
//!   `{1..s}` of the global commit order (the operational core of the
//!   Raad–Lahav–Vafeiadis SI axiomatization: no hole may be visible at
//!   begin).
//! - **P2 first-committer-wins** — no two concurrent committed update
//!   transactions with intersecting writesets.
//! - **P3 capture agreement** — the journaled snapshot watermark equals
//!   the snapshot the engine transaction actually reads.
//! - **P4 prune-watermark soundness** — the ws_list watermark is monotone
//!   and no writeset is ever certified with `cert` below it.
//! - **P5 verdict agreement** — every replica assigns the same verdict and
//!   the same global tid to the same sequenced writeset (Thm 1).
//! - **P6 hole discipline** — no remote commit creates a new hole while a
//!   local transaction is waiting to start and none is running (§4.3.3).
//! - **P7 session order** — in-doubt resolution reports "committed" only
//!   once the transaction is committed at the answering replica, so a
//!   failed-over client's next snapshot contains its own write.
//! - **L1 liveness/convergence** — terminal states have no open holes, no
//!   stuck queue entries, no permanently waiting begins, and all live
//!   replicas agree on the committed prefix.
//!
//! Violations are emitted as minimal counterexample traces **in the
//! journal's event vocabulary** ([`sirep_common::EventKind`]), replayable
//! as deterministic regression tests against the real `sirep-core` node
//! (see `tests/model_replay.rs` at the workspace root).
//!
//! Both models sit behind the [`ProtocolModel`] trait and share the
//! explorer, the counterexample format and the fail-closed self-check.
//!
//! Determinism is load-bearing: two runs over the same scope must produce
//! identical state counts and identical traces. The crate therefore uses
//! only ordered collections, never reads clocks or RNGs, passes every
//! journal stamp as 0, and — like `core/src/replica.rs` and
//! `gcs/src/seqlog.rs` — is covered by `lint.toml`'s
//! `no-ambient-nondeterminism` rule.

pub mod explore;
pub mod scenarios;
pub mod seq;
pub mod srca;

pub use explore::{Counterexample, Explorer, Report};
pub use scenarios::{scope_by_name, Scope, SCOPES};
pub use seq::{seq_scenarios, SeqModel};
pub use srca::{Mutation, Scenario, SrcaModel, TxnSpec};

use sirep_common::EventKind;

/// The property a violation was found against. Numbering follows
/// DESIGN.md §17.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Prop {
    /// P1: a begin observed a snapshot that is not a prefix of the global
    /// commit order (a hole was visible).
    SnapshotPrefix,
    /// P2: two concurrent committed update transactions with intersecting
    /// writesets both committed.
    FirstCommitterWins,
    /// P3: the journaled snapshot watermark disagrees with the snapshot
    /// the engine transaction actually read.
    CaptureMismatch,
    /// P4: the prune watermark regressed, or a writeset was certified
    /// with `cert` below the watermark (pruned entries not checkable).
    WatermarkSoundness,
    /// P5: two replicas assigned a different verdict or tid to the same
    /// sequenced writeset (Thm 1 broken).
    VerdictAgreement,
    /// P6: a remote commit created a new hole while a local transaction
    /// was waiting to start and none was running (§4.3.3).
    HoleDiscipline,
    /// P7: in-doubt resolution reported "committed" before the
    /// transaction was committed at the answering replica.
    SessionOrder,
    /// L1: a terminal state with open holes, stuck queue entries, a
    /// permanently waiting begin, or diverged live replicas.
    Liveness,
    /// S1: a member's stream (socket, frames in hand, leftover, cursor) has
    /// a gap, a duplicate or a reordering.
    StreamSlice,
    /// S2: a thread took from or wrote to a member it does not own alone.
    OneWriter,
    /// S3: a member behind or with a leftover had no owner, or a terminal
    /// state left a live member short of the log.
    Owned,
    /// S4: an evicted member was taken from, or its writer never exited.
    EvictionEnds,
}

impl Prop {
    /// Stable short name (CLI output, trace files).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Prop::SnapshotPrefix => "P1-snapshot-prefix",
            Prop::FirstCommitterWins => "P2-first-committer-wins",
            Prop::CaptureMismatch => "P3-capture-agreement",
            Prop::WatermarkSoundness => "P4-watermark-soundness",
            Prop::VerdictAgreement => "P5-verdict-agreement",
            Prop::HoleDiscipline => "P6-hole-discipline",
            Prop::SessionOrder => "P7-session-order",
            Prop::Liveness => "L1-liveness",
            Prop::StreamSlice => "S1-stream-slice",
            Prop::OneWriter => "S2-one-writer",
            Prop::Owned => "S3-owned",
            Prop::EvictionEnds => "S4-eviction-ends",
        }
    }
}

/// A property violation detected while applying a transition or checking
/// a terminal state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub prop: Prop,
    pub detail: String,
}

impl Violation {
    #[must_use]
    pub fn of(prop: Prop, detail: String) -> Violation {
        Violation { prop, detail }
    }
}

/// One journal-vocabulary event produced by a model transition: the
/// replica it would be recorded at, and the event itself.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    pub replica: u8,
    pub kind: EventKind,
}

/// The abstraction seam: a protocol model the [`Explorer`] can enumerate —
/// [`SrcaModel`] (the replicas over the sequencer's log) and [`SeqModel`]
/// (the sequencer's threads over the same log).
///
/// Implementations must be **pure**: `enabled` and `apply` may depend only
/// on the model's own configuration and the given state, and must
/// enumerate in a deterministic order.
pub trait ProtocolModel {
    type State: Clone;
    /// A state's canonical form, the memoization key: two states with
    /// equal keys must be behaviorally identical.
    type Key: Ord;
    /// A transition label, used to rebuild counterexample traces.
    type Label: Clone + std::fmt::Debug;

    fn initial(&self) -> Self::State;

    fn key(&self, s: &Self::State) -> Self::Key;

    /// All transitions enabled in `s`, in a deterministic order.
    fn enabled(&self, s: &Self::State) -> Vec<Self::Label>;

    /// Apply `label` to `s`. Returns the successor state, any property
    /// violations the transition itself exposes, and the journal events
    /// the transition corresponds to (for counterexample rendering).
    fn apply(
        &self,
        s: &Self::State,
        label: &Self::Label,
    ) -> (Self::State, Vec<Violation>, Vec<TraceEvent>);

    /// Liveness/convergence checks on a state with no enabled transitions.
    fn terminal_check(&self, s: &Self::State) -> Vec<Violation>;

    /// Human-readable one-line description of a transition.
    fn describe(&self, label: &Self::Label) -> String;
}
