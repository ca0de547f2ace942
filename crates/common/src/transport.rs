//! Transport-level telemetry: what a *networked* GCS backend counts.
//!
//! The sim backend never needed these — its "network" is a lock-protected
//! queue — but a real socket tier has failure modes of its own: frames that
//! fail to decode, connections that die and get evicted, bytes that tell
//! you whether the sequencer or the workload is the bottleneck. A
//! [`TransportSnapshot`] is the point-in-time bundle a backend reports
//! through `Cast::transport()` / `Group::transport()`, embedded in
//! `NodeStatus` and rolled up cluster-wide like the protocol gauges.
//!
//! Counters are cumulative since the endpoint connected; the two gauge
//! readings carry current + high-water like every other gauge. All fields
//! are plain data (the *updating* happens through atomics owned by the
//! backend).

use crate::gauges::GaugeReading;

/// Point-in-time transport counters/gauges for one endpoint (or the summed
/// rollup over several).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportSnapshot {
    /// Frames read off the wire (total-order, FIFO, and view frames).
    pub frames_in: u64,
    /// Payload + header bytes read off the wire.
    pub bytes_in: u64,
    /// Frames written to the wire (multicast submissions).
    pub frames_out: u64,
    /// Payload + header bytes written to the wire.
    pub bytes_out: u64,
    /// Delivered payloads whose message decode failed — each one kills the
    /// endpoint (total decode discipline: corrupt frames are errors, never
    /// panics), so non-zero here explains an eviction.
    pub decode_failures: u64,
    /// Joins by a replica id that had joined before (incarnation > 0) —
    /// restart recoveries observed by this group handle.
    pub reconnects: u64,
    /// Endpoints this process observed dying (socket error, eviction, or
    /// deliberate leave/crash).
    pub evictions: u64,
    /// Multicasts submitted but not yet sequenced (the `HELD_SEND_SEQ`
    /// window: send accepted, authoritative sequence number still pending).
    pub pending_sends: GaugeReading,
    /// Deliveries queued inside the endpoint. Always 0 on TCP: a member
    /// reads its own socket, so what it has not received yet sits in the
    /// kernel's buffer and behind its cursor at the sequencer
    /// (`SeqStats::members`). Kept because telemetry peers decode it.
    pub recv_queue: GaugeReading,
}

impl TransportSnapshot {
    /// Stable (name, value) pairs for the cumulative counters, in
    /// declaration order — the single source of truth for renderers.
    pub fn counters(&self) -> [(&'static str, u64); 7] {
        [
            ("frames_in", self.frames_in),
            ("bytes_in", self.bytes_in),
            ("frames_out", self.frames_out),
            ("bytes_out", self.bytes_out),
            ("decode_failures", self.decode_failures),
            ("reconnects", self.reconnects),
            ("evictions", self.evictions),
        ]
    }

    /// Stable (name, reading) pairs for the gauges.
    pub fn gauges(&self) -> [(&'static str, GaugeReading); 2] {
        [("pending_sends", self.pending_sends), ("recv_queue", self.recv_queue)]
    }

    /// Fold another snapshot in: counters and gauge currents add,
    /// high-waters take the max — same rollup rule as `GaugeSnapshot`.
    pub fn absorb(&mut self, other: &TransportSnapshot) {
        self.frames_in += other.frames_in;
        self.bytes_in += other.bytes_in;
        self.frames_out += other.frames_out;
        self.bytes_out += other.bytes_out;
        self.decode_failures += other.decode_failures;
        self.reconnects += other.reconnects;
        self.evictions += other.evictions;
        for (mine, theirs) in [
            (&mut self.pending_sends, other.pending_sends),
            (&mut self.recv_queue, other.recv_queue),
        ] {
            mine.current += theirs.current;
            mine.high_water = mine.high_water.max(theirs.high_water);
        }
    }

    /// True when nothing was ever counted (e.g. the sim backend's default).
    pub fn is_empty(&self) -> bool {
        *self == TransportSnapshot::default()
    }
}

crate::wire_codec!(struct TransportSnapshot {
    frames_in,
    bytes_in,
    frames_out,
    bytes_out,
    decode_failures,
    reconnects,
    evictions,
    pending_sends,
    recv_queue,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Wire;

    #[test]
    fn absorb_sums_counters_and_maxes_high_water() {
        let mut a = TransportSnapshot {
            frames_in: 10,
            bytes_in: 100,
            pending_sends: GaugeReading { current: 1, high_water: 4 },
            ..TransportSnapshot::default()
        };
        let b = TransportSnapshot {
            frames_in: 5,
            evictions: 1,
            pending_sends: GaugeReading { current: 2, high_water: 2 },
            ..TransportSnapshot::default()
        };
        a.absorb(&b);
        assert_eq!(a.frames_in, 15);
        assert_eq!(a.bytes_in, 100);
        assert_eq!(a.evictions, 1);
        assert_eq!(a.pending_sends, GaugeReading { current: 3, high_water: 4 });
        assert!(!a.is_empty());
        assert!(TransportSnapshot::default().is_empty());
    }

    /// `v`'s encoding as hex: the golden assertions pin the layout, which
    /// a round trip alone cannot (it passes when both sides change).
    fn hex<T: Wire>(v: &T) -> String {
        v.to_wire().iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn wire_round_trips() {
        let snap = TransportSnapshot {
            frames_in: 1,
            bytes_in: 2,
            frames_out: 3,
            bytes_out: 4,
            decode_failures: 5,
            reconnects: 6,
            evictions: 7,
            pending_sends: GaugeReading { current: 8, high_water: 9 },
            recv_queue: GaugeReading { current: 10, high_water: 11 },
        };
        assert_eq!(
            hex(&snap),
            concat!(
                "0100000000000000",
                "0200000000000000",
                "0300000000000000",
                "0400000000000000",
                "0500000000000000",
                "0600000000000000",
                "0700000000000000",
                "08000000000000000900000000000000",
                "0a000000000000000b00000000000000"
            )
        );
        let bytes = snap.to_wire();
        let back = TransportSnapshot::from_wire(&bytes).expect("decode");
        assert_eq!(back, snap);
        assert_eq!(back.to_wire(), bytes);
        for cut in 0..bytes.len() {
            assert!(TransportSnapshot::from_wire(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }
}
