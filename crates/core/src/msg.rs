//! Messages exchanged between middleware replicas, and their wire codec.
//!
//! The canonical transaction identifier ([`XactId`]) lives in
//! `sirep-common` (the journal and the wire codec need it too); it is
//! re-exported here because protocol code reads most naturally as
//! `msg::XactId`.
//!
//! Every inter-replica message implements [`Wire`] so the same `ReplMsg`
//! values flow over both transports: the sim backend ships them as in-proc
//! clones, the TCP backend as length-prefixed frames. `Arc`s exist only
//! *inside* a process — decoding always builds fresh allocations, so no
//! shared memory ever crosses the transport boundary.

pub use sirep_common::XactId;

use sirep_common::{GlobalTid, ReplicaId};
use sirep_storage::WriteSet;
use std::sync::Arc;

/// The recorded outcome of a transaction whose writeset reached validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Outcome {
    /// Passed global validation; will commit (or has committed) at every
    /// replica.
    Committed,
    /// Failed global validation; aborted everywhere.
    Aborted,
}

sirep_common::wire_codec!(enum Outcome, "outcome tag" {
    0 => Committed,
    1 => Aborted,
});

/// A writeset message, multicast in total order at commit time (Fig. 4,
/// step I.2.g).
#[derive(Debug)]
pub struct WsMsg {
    pub origin: ReplicaId,
    pub xact: XactId,
    /// `Ti.cert`: the origin's `lastvalidated_tid` captured just before the
    /// multicast — global validation checks only against transactions with
    /// a larger tid (those validated concurrently with the multicast).
    pub cert: GlobalTid,
    pub ws: Arc<WriteSet>,
}

sirep_common::wire_codec!(struct WsMsg { origin, xact, cert, ws });

/// Inter-replica message. Writesets are wrapped in `Arc` — the in-process
/// "network" ships the pointer, mirroring that a real network would ship an
/// immutable serialized copy (and the TCP transport does exactly that:
/// [`Wire::decode`] rebuilds a fresh `Arc` on the receiving side).
#[derive(Debug, Clone)]
pub enum ReplMsg {
    WriteSet(Arc<WsMsg>),
    /// Progress report used to garbage-collect `ws_list`: the sender
    /// promises every future writeset it multicasts carries
    /// `cert >= lastvalidated`.
    Progress {
        from: ReplicaId,
        lastvalidated: GlobalTid,
    },
    /// Recovery barrier (total order): once a replica has processed a
    /// marker, it has processed every message sequenced before it. The
    /// recovery protocol multicasts one through the *joiner's* fresh
    /// membership and waits for the donor to see it — only then is the
    /// donor's state guaranteed to cover everything the joiner's delivery
    /// buffer does not.
    Marker {
        token: u64,
    },
}

sirep_common::wire_codec!(enum ReplMsg, "replmsg tag" {
    0 => WriteSet(ws),
    1 => Progress { from, lastvalidated },
    2 => Marker { token },
});

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sirep_common::wire::{Wire, WireError};
    use sirep_storage::{Key, Value, WsOp};

    fn ws(entries: &[(&str, i64)]) -> WriteSet {
        let mut w = WriteSet::new();
        for &(table, k) in entries {
            w.push(
                Arc::from(table),
                Key::single(k),
                WsOp::Put(vec![Value::Int(k), Value::Text(format!("row-{k}"))]),
            );
        }
        w
    }

    fn sample_ws_msg(n: i64) -> WsMsg {
        WsMsg {
            origin: ReplicaId::new(1),
            xact: XactId::new(ReplicaId::new(1), XactId::seq_base(2) + 7),
            cert: GlobalTid::new(n as u64),
            ws: Arc::new(ws(&[("accounts", n), ("orders", n + 1)])),
        }
    }

    fn assert_repl_round_trip(msg: &ReplMsg) {
        let bytes = msg.to_wire();
        let back = ReplMsg::from_wire(&bytes).expect("decode");
        // ReplMsg has no PartialEq (it carries Arcs); compare re-encodings,
        // which the bit-identical codec makes a faithful equality.
        assert_eq!(back.to_wire(), bytes);
    }

    /// `v`'s encoding as hex: the golden assertions pin the layout, which
    /// a round trip alone cannot (it passes when both sides change).
    fn hex<T: Wire>(v: &T) -> String {
        v.to_wire().iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn all_repl_msg_variants_round_trip() {
        let msgs = [
            ReplMsg::WriteSet(Arc::new(sample_ws_msg(3))),
            ReplMsg::Progress { from: ReplicaId::new(2), lastvalidated: GlobalTid::new(99) },
            ReplMsg::Marker { token: u64::MAX },
        ];
        for msg in &msgs {
            assert_repl_round_trip(msg);
        }
        assert_eq!(
            hex(&msgs[0]),
            concat!(
                "00",
                "0100000000000000",
                "0100000000000000",
                "0700000000000200",
                "0300000000000000",
                "02000000",
                "080000006163636f756e7473",
                "01000000010300000000000000",
                "00020000000103000000000000000305000000726f772d33",
                "060000006f7264657273",
                "01000000010400000000000000",
                "00020000000104000000000000000305000000726f772d34"
            )
        );
        assert_eq!(hex(&msgs[1]), "0102000000000000006300000000000000");
        assert_eq!(hex(&msgs[2]), "02ffffffffffffffff");
    }

    #[test]
    fn decoded_writeset_is_a_fresh_allocation_with_working_index() {
        let msg = ReplMsg::WriteSet(Arc::new(sample_ws_msg(5)));
        let back = ReplMsg::from_wire(&msg.to_wire()).expect("decode");
        let ReplMsg::WriteSet(w) = &back else { panic!("wrong variant") };
        let ReplMsg::WriteSet(orig) = &msg else { panic!("wrong variant") };
        assert!(!Arc::ptr_eq(w, orig), "decode must not share memory");
        assert!(w.ws.intersects(&orig.ws), "rebuilt probe index must work");
    }

    #[test]
    fn outcome_and_corrupt_tags() {
        assert_eq!(Outcome::from_wire(&Outcome::Committed.to_wire()), Ok(Outcome::Committed));
        assert_eq!(Outcome::from_wire(&Outcome::Aborted.to_wire()), Ok(Outcome::Aborted));
        assert_eq!(hex(&Outcome::Committed) + &hex(&Outcome::Aborted), "0001");
        assert_eq!(Outcome::from_wire(&[9]), Err(WireError::Corrupt("outcome tag")));
        assert!(ReplMsg::from_wire(&[9]).is_err());
    }

    proptest! {
        #[test]
        fn prop_ws_msg_round_trips(
            origin in 0u64..8,
            seq in any::<u64>(),
            cert in any::<u64>(),
            keys in proptest::collection::vec(any::<i64>(), 0..16),
        ) {
            let msg = ReplMsg::WriteSet(Arc::new(WsMsg {
                origin: ReplicaId::new(origin),
                xact: XactId::new(ReplicaId::new(origin), seq),
                cert: GlobalTid::new(cert),
                ws: Arc::new(ws(&keys.iter().map(|&k| ("t", k)).collect::<Vec<_>>())),
            }));
            let bytes = msg.to_wire();
            let back = ReplMsg::from_wire(&bytes).unwrap();
            prop_assert_eq!(back.to_wire(), bytes);
        }

        #[test]
        fn prop_truncated_repl_msgs_rejected(token in any::<u64>()) {
            let bytes = ReplMsg::Marker { token }.to_wire();
            for cut in 0..bytes.len() {
                prop_assert!(ReplMsg::from_wire(&bytes[..cut]).is_err());
            }
        }

        #[test]
        fn prop_random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = ReplMsg::from_wire(&bytes);
            let _ = Outcome::from_wire(&bytes);
        }
    }
}
