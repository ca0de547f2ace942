//! Gauge telemetry: point-in-time protocol state with high-water marks.
//!
//! Counters ([`crate::metrics`]) only ever go up; the quantities that drive
//! the paper's §4 adjustments — `tocommit` queue depth, `ws_list` length,
//! open commit-order holes, applier backlog, GCS in-flight messages — go up
//! *and down*, and what matters for capacity planning is both the current
//! value and the worst it ever got.  A [`Gauge`] tracks exactly that pair
//! with two relaxed atomics; [`GaugeReading`] is the plain `Copy` snapshot
//! that reports embed, and [`GaugeSnapshot`] bundles one reading per
//! protocol gauge for `NodeStatus`.
//!
//! Like the rest of the observability layer this is feature-gated: without
//! the default-on `trace` feature [`Gauge`] is a zero-sized no-op and every
//! update site compiles away, while the snapshot types (plain data) stay
//! real so report structures keep their shape.

#[cfg(feature = "trace")]
use std::sync::atomic::{AtomicU64, Ordering};

/// A point-in-time reading: the current value and the high-water mark.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GaugeReading {
    pub current: u64,
    pub high_water: u64,
}

/// One reading per protocol gauge, as embedded in `NodeStatus`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GaugeSnapshot {
    /// Validated writesets waiting in the `tocommit` queue.
    pub tocommit_depth: GaugeReading,
    /// Entries retained in the certification `ws_list`.
    pub ws_list_len: GaugeReading,
    /// Open commit-order holes (validated-but-uncommitted below the commit
    /// frontier — what adjustment 3 makes local begins wait out).
    pub open_holes: GaugeReading,
    /// Queued writesets not yet picked up by an applier thread.
    pub applier_backlog: GaugeReading,
    /// Queued writesets that are *eligible* (no conflicting predecessor)
    /// but not yet claimed by an applier — the tocommit queue's ready set.
    pub ready_len: GaugeReading,
    /// Distinct (table, key) pairs in the certification last-certifier
    /// index — the memory footprint of key-indexed validation.
    pub cert_index_keys: GaugeReading,
    /// Messages enqueued in the GCS but not yet received by their member.
    pub gcs_in_flight: GaugeReading,
    /// Faults injected by the seeded chaos plan (monotone: current equals
    /// the total injected, high-water mirrors it).
    pub faults_injected: GaugeReading,
    /// Members currently isolated by a network partition (current), and the
    /// widest partition ever induced (high-water).
    pub partitioned: GaugeReading,
}

impl GaugeSnapshot {
    /// Stable (name, reading) pairs for renderers (Prometheus, tables).
    pub fn fields(&self) -> [(&'static str, GaugeReading); 9] {
        [
            ("tocommit_depth", self.tocommit_depth),
            ("ws_list_len", self.ws_list_len),
            ("open_holes", self.open_holes),
            ("applier_backlog", self.applier_backlog),
            ("ready_len", self.ready_len),
            ("cert_index_keys", self.cert_index_keys),
            ("gcs_in_flight", self.gcs_in_flight),
            ("faults_injected", self.faults_injected),
            ("partitioned", self.partitioned),
        ]
    }

    /// Fold another snapshot in: currents add, high-waters take the max —
    /// the cluster-wide rollup used by `ClusterReport`.
    pub fn absorb(&mut self, other: &GaugeSnapshot) {
        for (mine, theirs) in [
            (&mut self.tocommit_depth, other.tocommit_depth),
            (&mut self.ws_list_len, other.ws_list_len),
            (&mut self.open_holes, other.open_holes),
            (&mut self.applier_backlog, other.applier_backlog),
            (&mut self.ready_len, other.ready_len),
            (&mut self.cert_index_keys, other.cert_index_keys),
            (&mut self.gcs_in_flight, other.gcs_in_flight),
            (&mut self.faults_injected, other.faults_injected),
            (&mut self.partitioned, other.partitioned),
        ] {
            mine.current += theirs.current;
            mine.high_water = mine.high_water.max(theirs.high_water);
        }
    }
}

// ======================================================================
// Wire forms (telemetry scrapes). Snapshot types are plain data in both
// feature configurations, so these impls are unconditional.
// ======================================================================

crate::wire_codec!(struct GaugeReading { current, high_water });

// Fixed arity, in `fields()` order: adding a gauge changes the frame
// layout, which the telemetry round-trip tests pin on purpose.
crate::wire_codec!(struct GaugeSnapshot {
    tocommit_depth,
    ws_list_len,
    open_holes,
    applier_backlog,
    ready_len,
    cert_index_keys,
    gcs_in_flight,
    faults_injected,
    partitioned,
});

// ======================================================================
// Real implementation (`trace` feature on — the default).
// ======================================================================

/// A current-value gauge that remembers its high-water mark.
#[cfg(feature = "trace")]
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
    high: AtomicU64,
}

#[cfg(feature = "trace")]
impl Gauge {
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Set the current value (and bump the high-water mark if exceeded).
    #[inline]
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
        self.high.fetch_max(v, Ordering::Relaxed);
    }

    /// Add `n` to the current value.
    #[inline]
    pub fn add(&self, n: u64) {
        let v = self.value.fetch_add(n, Ordering::Relaxed) + n;
        self.high.fetch_max(v, Ordering::Relaxed);
    }

    /// Subtract `n`, saturating at zero (concurrent decrements may race a
    /// reset; a gauge must never wrap).
    #[inline]
    pub fn sub(&self, n: u64) {
        let _ = self
            .value
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| Some(v.saturating_sub(n)));
    }

    #[inline]
    pub fn read(&self) -> GaugeReading {
        GaugeReading {
            current: self.value.load(Ordering::Relaxed),
            high_water: self.high.load(Ordering::Relaxed),
        }
    }
}

// ======================================================================
// No-op implementation (`trace` feature off): same API, zero cost.
// ======================================================================

/// No-op gauge: the `trace` feature is off, updates compile away.
#[cfg(not(feature = "trace"))]
#[derive(Debug, Default)]
pub struct Gauge;

#[cfg(not(feature = "trace"))]
impl Gauge {
    #[inline(always)]
    pub fn new() -> Gauge {
        Gauge
    }
    #[inline(always)]
    pub fn set(&self, _v: u64) {}
    #[inline(always)]
    pub fn add(&self, _n: u64) {}
    #[inline(always)]
    pub fn sub(&self, _n: u64) {}
    #[inline(always)]
    pub fn read(&self) -> GaugeReading {
        GaugeReading::default()
    }
}

/// The per-replica protocol gauges, updated at mutation sites in the
/// replication core and snapshotted into `NodeStatus`.
#[derive(Debug, Default)]
pub struct ProtocolGauges {
    pub tocommit_depth: Gauge,
    pub ws_list_len: Gauge,
    pub open_holes: Gauge,
    pub applier_backlog: Gauge,
    pub ready_len: Gauge,
    pub cert_index_keys: Gauge,
}

impl ProtocolGauges {
    pub fn new() -> ProtocolGauges {
        ProtocolGauges::default()
    }

    /// Snapshot all six local gauges plus the externally-tracked GCS
    /// in-flight reading into one bundle.  The fault gauges are group-wide
    /// (owned by the GCS fault plan, not the node) and default to zero here;
    /// the cluster rollup fills them in from the group.
    pub fn snapshot(&self, gcs_in_flight: GaugeReading) -> GaugeSnapshot {
        GaugeSnapshot {
            tocommit_depth: self.tocommit_depth.read(),
            ws_list_len: self.ws_list_len.read(),
            open_holes: self.open_holes.read(),
            applier_backlog: self.applier_backlog.read(),
            ready_len: self.ready_len.read(),
            cert_index_keys: self.cert_index_keys.read(),
            gcs_in_flight,
            ..GaugeSnapshot::default()
        }
    }
}

#[cfg(all(test, feature = "trace"))]
mod tests {
    use super::*;
    use crate::wire::Wire;

    #[test]
    fn gauge_tracks_current_and_high_water() {
        let g = Gauge::new();
        g.set(5);
        g.set(2);
        assert_eq!(g.read(), GaugeReading { current: 2, high_water: 5 });
        g.add(10);
        assert_eq!(g.read(), GaugeReading { current: 12, high_water: 12 });
        g.sub(7);
        assert_eq!(g.read(), GaugeReading { current: 5, high_water: 12 });
    }

    #[test]
    fn gauge_sub_saturates() {
        let g = Gauge::new();
        g.add(1);
        g.sub(5);
        assert_eq!(g.read().current, 0);
    }

    #[test]
    fn snapshot_absorb_sums_currents_and_maxes_high_water() {
        let gauges = ProtocolGauges::new();
        gauges.tocommit_depth.set(3);
        gauges.open_holes.set(1);
        let mut a = gauges.snapshot(GaugeReading { current: 2, high_water: 9 });
        let b = gauges.snapshot(GaugeReading { current: 4, high_water: 4 });
        a.absorb(&b);
        assert_eq!(a.tocommit_depth, GaugeReading { current: 6, high_water: 3 });
        assert_eq!(a.gcs_in_flight, GaugeReading { current: 6, high_water: 9 });
        assert_eq!(a.fields()[2].0, "open_holes");
    }

    /// `v`'s encoding as hex: the golden assertions pin the layout, which
    /// a round trip alone cannot (it passes when both sides change).
    fn hex<T: Wire>(v: &T) -> String {
        v.to_wire().iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn wire_round_trips() {
        let gauges = ProtocolGauges::new();
        gauges.tocommit_depth.set(3);
        gauges.ws_list_len.set(77);
        gauges.open_holes.set(1);
        let snap = gauges.snapshot(GaugeReading { current: 2, high_water: 9 });
        let bytes = snap.to_wire();
        let back = GaugeSnapshot::from_wire(&bytes).expect("decode");
        assert_eq!(back, snap);
        assert_eq!(back.to_wire(), bytes);
        let r = GaugeReading { current: 4, high_water: 1 << 40 };
        assert_eq!(GaugeReading::from_wire(&r.to_wire()).unwrap(), r);
        assert_eq!(hex(&r), "04000000000000000000000000010000");
        assert_eq!(
            hex(&snap),
            concat!(
                "03000000000000000300000000000000",
                "4d000000000000004d00000000000000",
                "01000000000000000100000000000000",
                "00000000000000000000000000000000",
                "00000000000000000000000000000000",
                "00000000000000000000000000000000",
                "02000000000000000900000000000000",
                "00000000000000000000000000000000",
                "00000000000000000000000000000000"
            )
        );
    }

    #[test]
    fn wire_truncation_rejected() {
        let bytes = GaugeSnapshot::default().to_wire();
        for cut in 0..bytes.len() {
            assert!(GaugeSnapshot::from_wire(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }
}
