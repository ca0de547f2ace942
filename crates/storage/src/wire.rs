//! Wire codec for storage types: values, keys, rows, writesets.
//!
//! Writesets are the unit of replication, so they are the payload the TCP
//! transport ships most. A [`WriteSet`] decodes by replaying its entries
//! through [`WriteSet::push`], which rebuilds the conflict-probe index —
//! the index is derived state and never crosses the wire. Table names
//! re-intern into fresh `Arc<str>`s on the receiving side; nothing decoded
//! aliases sender memory.

use crate::value::{Key, Value};
use crate::writeset::{WriteSet, WsEntry, WsOp};
use sirep_common::wire::{Wire, WireError, WireReader};

sirep_common::wire_codec!(enum Value, "value tag" {
    0 => Null,
    1 => Int(i),
    2 => Float(f),
    3 => Text(s),
});

// Hand-written: a one-field tuple struct, encoded as its `Vec<Value>`.
impl Wire for Key {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Key(Wire::decode(r)?))
    }
}

sirep_common::wire_codec!(enum WsOp, "wsop tag" {
    0 => Put(row),
    1 => Delete,
});

sirep_common::wire_codec!(struct WsEntry { table, key, op });

// Hand-written: decode rebuilds the set through `push`, which derives the
// probe index.
impl Wire for WriteSet {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.entries().len() as u32).encode(out);
        for e in self.entries() {
            e.encode(out);
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = r.seq_len(1)?;
        let mut ws = WriteSet::new();
        for _ in 0..n {
            let e = WsEntry::decode(r)?;
            ws.push(e.table, e.key, e.op);
        }
        Ok(ws)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Arc;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: &T) {
        let bytes = v.to_wire();
        let back = T::from_wire(&bytes).expect("decode");
        assert_eq!(&back, v);
        assert_eq!(back.to_wire(), bytes, "re-encode must be bit-identical");
    }

    /// `v`'s encoding as hex: the golden assertions pin the layout, which
    /// a round trip alone cannot (it passes when both sides change).
    fn hex<T: Wire>(v: &T) -> String {
        v.to_wire().iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn values_round_trip() {
        round_trip(&Value::Null);
        round_trip(&Value::Int(i64::MIN));
        round_trip(&Value::Float(-0.0));
        round_trip(&Value::Text(String::from("naïve ε")));
        round_trip(&Key::composite(vec![Value::Int(1), Value::Text("b".into())]));
        assert_eq!(hex(&Value::Null), "00");
        assert_eq!(hex(&Value::Int(-2)), "01feffffffffffffff");
        assert_eq!(hex(&Value::Float(1.5)), "02000000000000f83f");
        assert_eq!(hex(&Value::Text("é".into())), "0302000000c3a9");
    }

    #[test]
    fn writeset_round_trips_and_rebuilds_index() {
        let mut ws = WriteSet::new();
        ws.push(Arc::from("stock"), Key::single(3), WsOp::Put(vec![Value::Int(9)]));
        ws.push(Arc::from("orders"), Key::single(1), WsOp::Delete);
        let back = WriteSet::from_wire(&ws.to_wire()).expect("decode");
        assert_eq!(back.entries(), ws.entries());
        assert_eq!(
            hex(&ws.entries()[0]),
            "0500000073746f636b010000000103000000000000000001000000010900000000000000"
        );
        assert_eq!(hex(&ws.entries()[1]), "060000006f72646572730100000001010000000000000001");
        assert_eq!(
            hex(&ws),
            concat!(
                "02000000",
                "0500000073746f636b",
                "01000000010300000000000000",
                "0001000000010900000000000000",
                "060000006f7264657273",
                "01000000010100000000000000",
                "01"
            )
        );
        // The probe index is rebuilt, not shipped: certification works.
        assert!(back.contains("stock", &Key::single(3)));
        assert!(back.intersects(&ws));
    }

    #[test]
    fn corrupt_value_tag_rejected() {
        assert_eq!(Value::from_wire(&[7]), Err(WireError::Corrupt("value tag")));
        assert_eq!(WsOp::from_wire(&[9]), Err(WireError::Corrupt("wsop tag")));
    }

    fn arb_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            any::<i64>().prop_map(Value::Int),
            any::<f64>().prop_map(Value::Float),
            ".*".prop_map(Value::Text),
        ]
    }

    fn arb_entry() -> impl Strategy<Value = WsEntry> {
        (
            "[a-z]{1,8}",
            proptest::collection::vec(arb_value(), 1..3),
            prop_oneof![
                proptest::collection::vec(arb_value(), 0..4).prop_map(WsOp::Put),
                Just(WsOp::Delete)
            ],
        )
            .prop_map(|(table, key, op)| WsEntry {
                table: Arc::from(table.as_str()),
                key: Key::composite(key),
                op,
            })
    }

    proptest! {
        #[test]
        fn prop_values_round_trip(v in arb_value()) {
            // NaN floats break PartialEq-based comparison; compare bits.
            let back = Value::from_wire(&v.to_wire()).unwrap();
            match (&v, &back) {
                (Value::Float(a), Value::Float(b)) => prop_assert_eq!(a.to_bits(), b.to_bits()),
                _ => prop_assert_eq!(&back, &v),
            }
        }

        #[test]
        fn prop_writesets_round_trip(entries in proptest::collection::vec(arb_entry(), 0..16)) {
            let mut ws = WriteSet::new();
            for e in entries {
                ws.push(e.table, e.key, e.op);
            }
            let bytes = ws.to_wire();
            let back = WriteSet::from_wire(&bytes).unwrap();
            prop_assert_eq!(back.entries(), ws.entries());
            prop_assert_eq!(back.to_wire(), bytes);
        }

        #[test]
        fn prop_truncated_writesets_rejected(entries in proptest::collection::vec(arb_entry(), 1..4)) {
            let mut ws = WriteSet::new();
            for e in entries {
                ws.push(e.table, e.key, e.op);
            }
            let bytes = ws.to_wire();
            for cut in 0..bytes.len() {
                prop_assert!(WriteSet::from_wire(&bytes[..cut]).is_err());
            }
        }

        #[test]
        fn prop_random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = Value::from_wire(&bytes);
            let _ = Key::from_wire(&bytes);
            let _ = WriteSet::from_wire(&bytes);
        }
    }
}
