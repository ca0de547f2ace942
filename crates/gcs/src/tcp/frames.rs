//! Frames on the wire between a [`TcpGroup`](crate::TcpGroup) member and
//! the sequencer service.
//!
//! The sequencer is payload-agnostic: application messages cross it as
//! opaque byte strings ([`Bytes`]), already `Wire`-encoded by the sending
//! member, so one sequencer binary serves any `M: Wire`. Member ids travel
//! as raw `u64`s; each one is its `(replica, incarnation)` (`MemberId`).

use sirep_common::wire::{Wire, WireError, WireReader};

/// An opaque, bulk-encoded byte payload. `Vec<u8>` through the generic
/// `Vec<T: Wire>` impl would encode element-wise; this newtype copies the
/// buffer in one shot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bytes(pub Vec<u8>);

// Hand-written: it copies its buffer in one go.
impl Wire for Bytes {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.0.len() as u32).encode(out);
        out.extend_from_slice(&self.0);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = r.seq_len(1)?;
        Ok(Bytes(r.take(n)?.to_vec()))
    }
}

/// Member → sequencer.
///
/// A connection becomes a *member* connection by sending [`UpFrame::Join`]
/// first; it then carries only `Total`/`Fifo`/`Leave`. A connection that
/// starts with `Evict` or `Query` is an *admin* connection (request/reply,
/// no membership).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpFrame {
    /// Join the group as (a fresh incarnation of) logical replica
    /// `replica`.
    Join { replica: u64 },
    /// Uniform reliable total-order multicast: sequence and fan out.
    Total { payload: Bytes },
    /// FIFO multicast: fan out without consuming a sequence number.
    Fifo { payload: Bytes },
    /// Graceful leave; survivors observe the same view change a crash
    /// would produce.
    Leave,
    /// Admin: declare `member` crashed (the test/ops analogue of the sim
    /// backend's `Group::crash`).
    Evict { member: u64 },
    /// Admin: report the current view.
    Query,
    /// Admin: report sequencer-side observability counters
    /// ([`DownFrame::Stats`]).
    Stats,
    /// Admin: report the sequencer's monotonic clock ([`DownFrame::Time`]) —
    /// one leg of the cross-process clock-offset handshake that aligns
    /// per-node Perfetto tracks onto the sequencer's timeline.
    TimeProbe,
}

sirep_common::wire_codec!(enum UpFrame, "upframe tag" {
    0 => Join { replica },
    1 => Total { payload },
    2 => Fifo { payload },
    3 => Leave,
    4 => Evict { member },
    5 => Query,
    6 => Stats,
    7 => TimeProbe,
});

/// Sequencer → member.
///
/// `Total`/`Fifo`/`View` form the sequenced delivery stream; the sequencer
/// retains the full stream and sends it from the beginning to every
/// joiner, which is how a restarted replica recovers (deterministic replay
/// instead of state transfer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DownFrame {
    /// Join handshake reply: the member id minted for this join — the
    /// replica named in `Join` plus its incarnation, which the member folds
    /// into the transaction ids it assigns.
    Welcome { member: u64 },
    /// A sequenced total-order multicast.
    Total { seq: u64, sender: u64, payload: Bytes },
    /// A FIFO multicast.
    Fifo { sender: u64, payload: Bytes },
    /// A membership view: member ids, sorted.
    View { id: u64, members: Vec<u64> },
    /// Admin reply to [`UpFrame::Evict`], sent once the member's socket is
    /// shut down and the view change is sequenced.
    Evicted,
    /// Admin reply to [`UpFrame::Stats`]: the sequencer's observability
    /// counters — sequenced-log length, next sequence number, view id, and
    /// per-member `(member, backlog)` pairs (log frames that member's
    /// writer has not yet taken: log length minus the member's cursor),
    /// sorted by member id.
    Stats { log_len: u64, next_seq: u64, view_id: u64, members: Vec<(u64, u64)> },
    /// Admin reply to [`UpFrame::TimeProbe`]: nanoseconds on the
    /// sequencer's monotonic clock since it started serving.
    Time { now_ns: u64 },
}

sirep_common::wire_codec!(enum DownFrame, "downframe tag" {
    0 => Welcome { member },
    1 => Total { seq, sender, payload },
    2 => Fifo { sender, payload },
    3 => View { id, members },
    4 => Evicted,
    5 => Stats { log_len, next_seq, view_id, members },
    6 => Time { now_ns },
});

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Round trip `v`, and pin its exact bytes (`want`, hex): a round trip
    /// alone passes when encode and decode change together.
    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: &T, want: &str) {
        let bytes = v.to_wire();
        let back = T::from_wire(&bytes).expect("decode");
        assert_eq!(&back, v);
        assert_eq!(back.to_wire(), bytes);
        assert_eq!(bytes.iter().map(|b| format!("{b:02x}")).collect::<String>(), want, "{v:?}");
    }

    #[test]
    fn all_up_frame_variants_round_trip() {
        round_trip(&UpFrame::Join { replica: 2 }, "000200000000000000");
        round_trip(&UpFrame::Total { payload: Bytes(vec![1, 2, 3]) }, "0103000000010203");
        round_trip(&UpFrame::Fifo { payload: Bytes(Vec::new()) }, "0200000000");
        round_trip(&UpFrame::Leave, "03");
        round_trip(&UpFrame::Evict { member: (3 << 32) | 1 }, "040100000003000000");
        round_trip(&UpFrame::Query, "05");
        round_trip(&UpFrame::Stats, "06");
        round_trip(&UpFrame::TimeProbe, "07");
    }

    #[test]
    fn all_down_frame_variants_round_trip() {
        round_trip(&DownFrame::Welcome { member: (1 << 32) | 5 }, "000500000001000000");
        round_trip(
            &DownFrame::Total { seq: 9, sender: 2, payload: Bytes(vec![0xff; 64]) },
            &format!("010900000000000000020000000000000040000000{}", "ff".repeat(64)),
        );
        round_trip(
            &DownFrame::Fifo { sender: 0, payload: Bytes(vec![7]) },
            "0200000000000000000100000007",
        );
        round_trip(
            &DownFrame::View { id: 4, members: vec![0, 1, 1 << 32] },
            "03040000000000000003000000000000000000000001000000000000000000000001000000",
        );
        round_trip(&DownFrame::Evicted, "04");
        round_trip(
            &DownFrame::Stats {
                log_len: 100,
                next_seq: 42,
                view_id: 7,
                members: vec![(0, 3), (1 << 32, 0)],
            },
            concat!(
                "05",
                "6400000000000000",
                "2a00000000000000",
                "0700000000000000",
                "02000000",
                "00000000000000000300000000000000",
                "00000000010000000000000000000000"
            ),
        );
        round_trip(&DownFrame::Time { now_ns: 1_234_567_890 }, "06d202964900000000");
    }

    #[test]
    fn corrupt_tags_rejected() {
        assert_eq!(UpFrame::from_wire(&[9]), Err(WireError::Corrupt("upframe tag")));
        assert_eq!(DownFrame::from_wire(&[9]), Err(WireError::Corrupt("downframe tag")));
        // Tag 7 was the batch frame; no peer may send it any more.
        assert_eq!(DownFrame::from_wire(&[7]), Err(WireError::Corrupt("downframe tag")));
    }

    #[test]
    fn stats_frame_truncations_rejected() {
        let frame = DownFrame::Stats { log_len: 1, next_seq: 2, view_id: 3, members: vec![(4, 5)] };
        let bytes = frame.to_wire();
        for cut in 0..bytes.len() {
            assert!(DownFrame::from_wire(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    proptest! {
        #[test]
        fn prop_random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
            let _ = UpFrame::from_wire(&bytes);
            let _ = DownFrame::from_wire(&bytes);
        }

        #[test]
        fn prop_truncations_rejected(payload in proptest::collection::vec(any::<u8>(), 0..64)) {
            let frame = DownFrame::Total { seq: 1, sender: 2, payload: Bytes(payload) };
            let bytes = frame.to_wire();
            for cut in 0..bytes.len() {
                prop_assert!(DownFrame::from_wire(&bytes[..cut]).is_err());
            }
        }
    }
}
