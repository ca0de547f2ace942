//! Shared infrastructure for the SI-Rep reproduction.
//!
//! This crate holds the small, dependency-light building blocks used by every
//! other crate in the workspace:
//!
//! - [`ids`]: strongly-typed identifiers (replicas, transactions, clients).
//! - [`error`]: the abort/failure taxonomy shared by the storage engine,
//!   the replication middleware and the client driver.
//! - [`clock`]: model-time scaling and precise sleeping, so benchmark sweeps
//!   reproduce the paper's queueing behaviour in a fraction of wall time.
//! - [`stats`]: online statistics with the 95/5 confidence-interval stopping
//!   rule used by the paper ("all tests were run until a 95/5 confidence
//!   interval was achieved").
//! - [`histogram`]: log-bucketed latency histograms.
//! - [`metrics`]: cheap atomic counters for protocol events (commits, aborts
//!   by reason, commit-order holes, ...).
//! - [`trace`]: the replication pipeline's stages and their per-stage
//!   latency histograms.
//! - [`journal`]: bounded ring of typed protocol events per replica, and
//!   the clock the stage latencies are measured on.
//! - [`gauges`]: current-value telemetry with high-water marks for the
//!   protocol's queue depths.
//! - [`wire`]: the dependency-free length-prefixed binary codec everything
//!   crossing a process boundary encodes through.
//! - [`json`]: the one JSON well-formedness checker the hand-rolled
//!   renderers and their tests share.

pub mod clock;
pub mod error;
pub mod gauges;
pub mod histogram;
pub mod ids;
pub mod journal;
pub mod json;
pub mod metrics;
pub mod stats;
pub mod sync;
pub mod trace;
pub mod transport;
pub mod wire;

pub use clock::{precise_sleep, TimeScale};
pub use error::{AbortReason, DbError};
pub use gauges::{Gauge, GaugeReading, GaugeSnapshot};
pub use histogram::Histogram;
pub use ids::{ClientId, GlobalTid, MemberId, ReplicaId, SessionId, TxnId, XactId};
pub use journal::{
    CrashPoint, Event, EventKind, FaultKind, Journal, JournalWriter, DEFAULT_JOURNAL_CAPACITY,
};
pub use json::json_lint;
pub use metrics::{Metrics, Rates};
pub use stats::{ConfidenceInterval, OnlineStats};
pub use sync::Semaphore;
pub use trace::{Stage, StageSnapshot, STAGE_COUNT};
pub use transport::TransportSnapshot;
pub use wire::{
    read_frame, write_frame, write_frame_counted, Wire, WireError, WireReader, MAX_FRAME,
};
