//! Per-stage latency breakdown of the replication pipeline.
//!
//! A transaction's life is one timeline of [`crate::journal::Journal`]
//! stamps; each [`Stage`] is the gap between two of them, recorded by the
//! journal when the later one is stamped. The stages mirror the SRCA-Rep
//! pipeline from the paper:
//!
//! ```text
//! begin_wait -> execute -> ws_extract -> gcs_deliver -> validate_queue
//!            -> apply -> commit                         (+ total)
//! ```
//!
//! * `begin_wait` — time a `begin` stalled on open commit-order holes
//!   (adjustment 3, §5.3 of the paper); sampled only by begins that waited.
//! * `execute` — client statement execution on the local snapshot.
//! * `ws_extract` — writeset extraction at commit request time.
//! * `gcs_deliver` — total-order multicast latency (send → deliver).
//! * `validate_queue` — time between delivery/validation and the moment the
//!   writeset starts to apply/commit (the `tocommit`-queue wait).
//! * `apply` — applying the writeset (remote replicas only: the local
//!   transaction already holds its updates).
//! * `commit` — the final database commit call, including the hole rule wait.
//! * `total` — begin to durable commit, end to end (origin only).
//!
//! [`StageSnapshot`] holds one log-bucketed [`Histogram`] per stage
//! (recorded in **milliseconds**, like every other histogram in the
//! workspace).

use crate::histogram::Histogram;
use std::fmt;

/// Pipeline stages of a replicated transaction, in causal order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Stage {
    /// `begin` blocked waiting for commit-order holes to drain.
    BeginWait = 0,
    /// Client statements executed against the local snapshot.
    Execute = 1,
    /// Writeset extracted at commit request.
    WsExtract = 2,
    /// Writeset delivered by the total-order multicast.
    GcsDeliver = 3,
    /// Validated writeset waited in the tocommit queue.
    ValidateQueue = 4,
    /// Writeset applied to the database.
    Apply = 5,
    /// Final commit call returned (includes the hole rule wait).
    Commit = 6,
    /// End-to-end: begin to durable commit.
    Total = 7,
}

/// Number of [`Stage`] variants (size of per-stage arrays).
pub const STAGE_COUNT: usize = 8;

impl Stage {
    /// All stages, in pipeline order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::BeginWait,
        Stage::Execute,
        Stage::WsExtract,
        Stage::GcsDeliver,
        Stage::ValidateQueue,
        Stage::Apply,
        Stage::Commit,
        Stage::Total,
    ];

    /// Stable lowercase name used in breakdown tables.
    pub fn name(self) -> &'static str {
        match self {
            Stage::BeginWait => "begin_wait",
            Stage::Execute => "execute",
            Stage::WsExtract => "ws_extract",
            Stage::GcsDeliver => "gcs_deliver",
            Stage::ValidateQueue => "validate_queue",
            Stage::Apply => "apply",
            Stage::Commit => "commit",
            Stage::Total => "total",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One latency [`Histogram`] per [`Stage`]: what a journal accumulates
/// and what reports embed and merge.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageSnapshot {
    hists: [Histogram; STAGE_COUNT],
}

impl StageSnapshot {
    /// Add one `stage` sample of `ns` nanoseconds.
    pub fn record_ns(&mut self, stage: Stage, ns: u64) {
        self.hists[stage as usize].record(ns as f64 / 1e6);
    }

    /// Number of samples recorded for `stage`.
    pub fn count(&self, stage: Stage) -> u64 {
        self.hists[stage as usize].count()
    }

    /// Latency quantile for `stage` in milliseconds (NaN when empty).
    pub fn quantile(&self, stage: Stage, q: f64) -> f64 {
        self.hists[stage as usize].quantile(q)
    }

    /// Median latency for `stage` in milliseconds (NaN when empty).
    pub fn median(&self, stage: Stage) -> f64 {
        self.hists[stage as usize].median()
    }

    /// Samples for `stage` beyond the histogram's tracked range — tail
    /// quantiles for the stage are lower bounds when this is non-zero.
    pub fn overflow(&self, stage: Stage) -> u64 {
        self.hists[stage as usize].overflow()
    }

    /// Merge another snapshot into this one.
    pub fn merge(&mut self, other: &StageSnapshot) {
        for stage in Stage::ALL {
            self.hists[stage as usize].merge(&other.hists[stage as usize]);
        }
    }

    /// True when no stage has any samples.
    pub fn is_empty(&self) -> bool {
        Stage::ALL.iter().all(|&s| self.count(s) == 0)
    }

    /// Fixed-width per-stage breakdown table (p50/p95/p99 in ms), the
    /// standard footer of the fig5/fig6/fig7 harnesses:
    ///
    /// ```text
    /// stage            count    p50 ms    p95 ms    p99 ms
    /// begin_wait          12     0.102     0.471     0.802
    /// ...
    /// ```
    pub fn breakdown_table(&self) -> String {
        let mut out = String::with_capacity(64 * (STAGE_COUNT + 1));
        out.push_str(&format!(
            "{:<15} {:>8} {:>9} {:>9} {:>9}\n",
            "stage", "count", "p50 ms", "p95 ms", "p99 ms"
        ));
        for stage in Stage::ALL {
            let n = self.count(stage);
            if n == 0 {
                continue;
            }
            out.push_str(&format!(
                "{:<15} {:>8} {:>9.3} {:>9.3} {:>9.3}\n",
                stage.name(),
                n,
                self.quantile(stage, 0.50),
                self.quantile(stage, 0.95),
                self.quantile(stage, 0.99),
            ));
        }
        out
    }
}

// ======================================================================
// Wire form (telemetry scrapes).
// ======================================================================

/// Sparse canonical encoding: a `Vec` of `(stage_tag, histogram)` pairs
/// for the stages with at least one sample, in strictly increasing stage
/// order. Hand-written: decode rejects non-canonical input.
impl crate::wire::Wire for StageSnapshot {
    fn encode(&self, out: &mut Vec<u8>) {
        let nonempty: Vec<(u8, Histogram)> = Stage::ALL
            .iter()
            .filter(|&&s| self.count(s) > 0)
            .map(|&s| (s as u8, self.hists[s as usize].clone()))
            .collect();
        nonempty.encode(out);
    }

    fn decode(r: &mut crate::wire::WireReader<'_>) -> Result<Self, crate::wire::WireError> {
        use crate::wire::WireError;
        let pairs = Vec::<(u8, Histogram)>::decode(r)?;
        let mut last: Option<u8> = None;
        let mut snap = StageSnapshot::default();
        for (tag, hist) in pairs {
            if tag as usize >= STAGE_COUNT {
                return Err(WireError::Corrupt("stage tag"));
            }
            if last.is_some_and(|l| tag <= l) {
                return Err(WireError::Corrupt("stage order"));
            }
            if hist.count() == 0 {
                return Err(WireError::Corrupt("stage empty histogram"));
            }
            last = Some(tag);
            snap.hists[tag as usize] = hist;
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{Wire, WireError};

    const MS: u64 = 1_000_000;

    #[test]
    fn record_merge_and_report() {
        let mut snap = StageSnapshot::default();
        assert!(snap.is_empty());
        for i in 1..=50u64 {
            snap.record_ns(Stage::Execute, i * MS);
            snap.record_ns(Stage::Commit, MS);
        }
        let mut other = StageSnapshot::default();
        other.record_ns(Stage::Apply, 3 * MS);
        snap.merge(&other);

        assert_eq!(snap.count(Stage::Execute), 50);
        assert_eq!(snap.count(Stage::Apply), 1);
        assert_eq!(snap.count(Stage::BeginWait), 0);
        let p50 = snap.median(Stage::Execute);
        assert!((20.0..=35.0).contains(&p50), "p50 = {p50}");

        let table = snap.breakdown_table();
        assert!(table.contains("execute"));
        assert!(table.contains("apply"));
        assert!(!table.contains("begin_wait"), "empty stages are omitted:\n{table}");
    }

    fn round_trip(snap: &StageSnapshot) {
        let bytes = snap.to_wire();
        let back = StageSnapshot::from_wire(&bytes).expect("decode");
        assert_eq!(&back, snap);
        assert_eq!(back.to_wire(), bytes, "re-encode must be bit-identical");
    }

    #[test]
    fn wire_round_trips() {
        round_trip(&StageSnapshot::default());
        let mut snap = StageSnapshot::default();
        snap.record_ns(Stage::Execute, 12_500_000);
        snap.record_ns(Stage::Execute, 1_250_000);
        snap.record_ns(Stage::Commit, 400_000);
        snap.record_ns(Stage::Total, 14 * MS);
        round_trip(&snap);
        let back = StageSnapshot::from_wire(&snap.to_wire()).unwrap();
        assert_eq!(back.count(Stage::Execute), 2);
        assert_eq!(back.median(Stage::Execute).to_bits(), snap.median(Stage::Execute).to_bits());
    }

    #[test]
    fn wire_truncation_rejected() {
        let mut snap = StageSnapshot::default();
        snap.record_ns(Stage::Apply, 3 * MS);
        snap.record_ns(Stage::Total, 9 * MS);
        let bytes = snap.to_wire();
        for cut in 0..bytes.len() {
            assert!(StageSnapshot::from_wire(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn wire_non_canonical_rejected() {
        let mut one = Histogram::new();
        one.record(1.0);
        let frame = |pairs: &[(u8, Histogram)]| {
            let mut out = Vec::new();
            pairs.to_vec().encode(&mut out);
            out
        };
        let got = StageSnapshot::from_wire(&frame(&[(STAGE_COUNT as u8, one.clone())]));
        assert_eq!(got.unwrap_err(), WireError::Corrupt("stage tag"));
        let got = StageSnapshot::from_wire(&frame(&[(3, one.clone()), (1, one.clone())]));
        assert_eq!(got.unwrap_err(), WireError::Corrupt("stage order"));
        let got = StageSnapshot::from_wire(&frame(&[(0, Histogram::new())]));
        assert_eq!(got.unwrap_err(), WireError::Corrupt("stage empty histogram"));
    }
}
