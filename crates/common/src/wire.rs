//! Dependency-free length-prefixed binary codec for everything that
//! crosses a process boundary.
//!
//! The in-process GCS tier ships `Arc`s; the TCP tier must ship bytes. This
//! module is the single wire format both the replication protocol
//! (`ReplMsg`, writesets, view changes) and the client driver frames encode
//! through, so "no `Arc` sharing across the boundary" is enforced by
//! construction: [`Wire::decode`] can only ever build fresh values.
//!
//! Format: little-endian fixed-width integers, `u32` length prefixes for
//! strings and sequences, one `u8` discriminant per enum variant. Frames on
//! a stream are `u32`-LE byte length followed by the payload, capped at
//! [`MAX_FRAME`]. Decoding is total: malformed input yields [`WireError`],
//! never a panic or an attacker-sized allocation (length prefixes are
//! validated against the bytes actually present before reserving).
//!
//! A message type states its layout once, through
//! [`wire_codec!`](crate::wire_codec): a struct's fields in wire order, or
//! an enum's `tag => Variant` table with each variant's fields. The macro
//! writes both `encode` and `decode`, so the two cannot drift; tags stay
//! literal numbers next to their variants (a retired tag stays out of the
//! table). `usize` travels as `u64`, `Arc<T>` and `Box<T>` as `T` (decode
//! allocates afresh), `Arc<[T]>` as `Vec<T>` and `Arc<str>` as `String`.
//! Hand-written, each for the reason noted at its impl: the primitives and
//! containers here, `DbError` (re-interns a string), `Key` (a tuple
//! struct), `WriteSet` (rebuilt through `push`), `Bytes` (one bulk copy),
//! `Histogram` and `StageSnapshot` (reject non-canonical input) and
//! `Metrics` (atomic counters).

use std::fmt;
use std::io::{self, Read, Write};
use std::sync::Arc;

/// Hard upper bound on a single frame, applied on both sides of a stream.
/// Generous for writesets (a full TPC-W cart update is a few KiB) while
/// bounding what a corrupt length prefix can make a peer allocate.
pub const MAX_FRAME: usize = 64 << 20;

/// Why a decode failed. Decoding never panics; every malformed input maps
/// to one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value did.
    Truncated,
    /// Structurally invalid bytes (bad discriminant, non-UTF-8 string, ...).
    Corrupt(&'static str),
    /// A declared length exceeds [`MAX_FRAME`] or the bytes on hand.
    TooLarge,
    /// Bytes were left over after the outermost value was decoded.
    TrailingBytes,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => f.write_str("wire: truncated input"),
            WireError::Corrupt(what) => write!(f, "wire: corrupt input ({what})"),
            WireError::TooLarge => f.write_str("wire: declared length too large"),
            WireError::TrailingBytes => f.write_str("wire: trailing bytes after value"),
        }
    }
}

impl std::error::Error for WireError {}

/// Cursor over a byte slice being decoded.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    pub fn new(buf: &'a [u8]) -> WireReader<'a> {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consume exactly `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let slice = self.take(N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(slice);
        Ok(out)
    }

    /// A length prefix for a sequence of elements each at least
    /// `min_elem_size` bytes. Rejects prefixes that could not possibly be
    /// satisfied by the remaining bytes, so `Vec::with_capacity` on the
    /// result cannot be attacker-amplified.
    pub fn seq_len(&mut self, min_elem_size: usize) -> Result<usize, WireError> {
        let n = u32::decode(self)? as usize;
        if n > MAX_FRAME || n.saturating_mul(min_elem_size.max(1)) > self.remaining() {
            return Err(WireError::TooLarge);
        }
        Ok(n)
    }
}

/// A value with a canonical binary encoding.
///
/// Implementations must round-trip: `decode(encode(v)) == v`, bit-identical
/// on re-encode. `decode` must be total (no panics, no unbounded
/// allocation) — transport code feeds it bytes straight off a socket.
pub trait Wire: Sized {
    fn encode(&self, out: &mut Vec<u8>);
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError>;

    /// Encode into a fresh buffer.
    fn to_wire(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Decode a complete buffer; trailing bytes are an error.
    fn from_wire(buf: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(buf);
        let v = Self::decode(&mut r)?;
        if r.remaining() != 0 {
            return Err(WireError::TrailingBytes);
        }
        Ok(v)
    }
}

// The primitives and containers are hand-written: declarations are made
// of them.
macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                Ok(<$t>::from_le_bytes(r.take_array()?))
            }
        }
    )*};
}

wire_int!(u8, u16, u32, u64, i64);

impl Wire for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(f64::from_bits(u64::from_le_bytes(r.take_array()?)))
    }
}

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        // Literal tag bytes, mirrored by `decode`'s arms: the lint's
        // wire-tag registry checks the two sides stay in sync.
        match self {
            false => out.push(0),
            true => out.push(1),
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Corrupt("bool")),
        }
    }
}

/// `usize` travels as `u64`; a value this host cannot hold is corrupt.
impl Wire for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        usize::try_from(u64::decode(r)?).map_err(|_| WireError::Corrupt("usize"))
    }
}

/// A string is its `u32` byte length, then its UTF-8 bytes.
fn encode_str(s: &str, out: &mut Vec<u8>) {
    (s.len() as u32).encode(out);
    out.extend_from_slice(s.as_bytes());
}

fn decode_str<'a>(r: &mut WireReader<'a>) -> Result<&'a str, WireError> {
    let n = r.seq_len(1)?;
    std::str::from_utf8(r.take(n)?).map_err(|_| WireError::Corrupt("utf-8"))
}

impl Wire for String {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_str(self, out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        decode_str(r).map(String::from)
    }
}

/// The `String` layout, decoded into one fresh allocation.
impl Wire for Arc<str> {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_str(self, out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        decode_str(r).map(Arc::from)
    }
}

/// A sequence is its `u32` element count, then the elements.
fn encode_seq<T: Wire>(items: &[T], out: &mut Vec<u8>) {
    (items.len() as u32).encode(out);
    for item in items {
        item.encode(out);
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_seq(self, out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = r.seq_len(1)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

/// The `Vec<T>` layout.
impl<T: Wire> Wire for Arc<[T]> {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_seq(self, out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Vec::<T>::decode(r).map(Arc::from)
    }
}

/// The inner value; decode allocates a fresh one, so no `Arc` is shared
/// across the boundary.
impl<T: Wire> Wire for Arc<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        T::decode(r).map(Arc::new)
    }
}

impl<T: Wire> Wire for Box<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        T::decode(r).map(Box::new)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            _ => Err(WireError::Corrupt("option tag")),
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

macro_rules! wire_id {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                self.raw().encode(out);
            }
            fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                Ok(Self::new(u64::decode(r)?))
            }
        }
    )*};
}

wire_id!(
    crate::ids::ReplicaId,
    crate::ids::TxnId,
    crate::ids::GlobalTid,
    crate::ids::ClientId,
    crate::ids::SessionId,
    crate::ids::MemberId
);

/// Writes a type's `impl Wire` from one declaration of its layout, so
/// `encode` and `decode` cannot disagree.
///
/// - `wire_codec!(struct T { a, b })`: the named fields, in wire order.
/// - `wire_codec!(enum T, "t tag" { 0 => A, 1 => B(x), 2 => C { a, b } })`:
///   a `u8` tag, then the variant's fields in the order listed; an unknown
///   tag decodes to `WireError::Corrupt("t tag")`.
///
/// A variant left out does not compile (`encode`'s match is not
/// exhaustive); a tag used twice is an `unreachable_patterns` warning,
/// which CI denies.
#[macro_export]
macro_rules! wire_codec {
    (struct $ty:ty { $($field:ident),* $(,)? }) => {
        impl $crate::wire::Wire for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                $($crate::wire::Wire::encode(&self.$field, out);)*
            }
            fn decode(
                r: &mut $crate::wire::WireReader<'_>,
            ) -> Result<Self, $crate::wire::WireError> {
                Ok(Self { $($field: $crate::wire::Wire::decode(r)?),* })
            }
        }
    };
    (enum $ty:ty, $what:literal {
        $($tag:literal => $var:ident $(($($t:ident),*))? $({ $($f:ident),* })?),* $(,)?
    }) => {
        impl $crate::wire::Wire for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                match self {
                    $(Self::$var $(($($t),*))? $({ $($f),* })? => {
                        out.push($tag);
                        $($($crate::wire::Wire::encode($t, out);)*)?
                        $($($crate::wire::Wire::encode($f, out);)*)?
                    })*
                }
            }
            fn decode(
                r: &mut $crate::wire::WireReader<'_>,
            ) -> Result<Self, $crate::wire::WireError> {
                Ok(match <u8 as $crate::wire::Wire>::decode(r)? {
                    $($tag => {
                        $($(let $t = $crate::wire::Wire::decode(r)?;)*)?
                        $($(let $f = $crate::wire::Wire::decode(r)?;)*)?
                        Self::$var $(($($t),*))? $({ $($f),* })?
                    })*
                    _ => return Err($crate::wire::WireError::Corrupt($what)),
                })
            }
        }
    };
}

wire_codec!(struct crate::ids::XactId { origin, seq });

wire_codec!(enum crate::error::AbortReason, "abort reason tag" {
    0 => SerializationFailure,
    1 => Deadlock,
    2 => ValidationFailure,
    3 => UserRequested,
    4 => ReplicaCrashed,
    5 => Shutdown,
});

/// `TypeMismatch::expected` is a `&'static str`; the decoder re-interns the
/// transported string against the finite set the engine actually emits, so
/// the round trip is exact for every error the engine can produce (unknown
/// strings — only possible from a corrupt or newer peer — degrade to a
/// generic description rather than failing the decode).
fn intern_expected(s: &str) -> &'static str {
    match s {
        "int" => "int",
        "float" => "float",
        "text" => "text",
        "non-null primary key" => "non-null primary key",
        _ => "a value of the column's type",
    }
}

// Hand-written: decode re-interns `TypeMismatch::expected`.
impl Wire for crate::error::DbError {
    fn encode(&self, out: &mut Vec<u8>) {
        use crate::error::DbError::*;
        match self {
            Aborted(reason) => {
                out.push(0);
                reason.encode(out);
            }
            UnknownTable(name) => {
                out.push(1);
                name.encode(out);
            }
            UnknownColumn(name) => {
                out.push(2);
                name.encode(out);
            }
            TypeMismatch { column, expected } => {
                out.push(3);
                column.encode(out);
                expected.to_string().encode(out);
            }
            DuplicateKey(key) => {
                out.push(4);
                key.encode(out);
            }
            NoSuchTransaction => out.push(5),
            Parse(msg) => {
                out.push(6);
                msg.encode(out);
            }
            Unsupported(msg) => {
                out.push(7);
                msg.encode(out);
            }
            ConnectionLost { in_doubt } => {
                out.push(8);
                in_doubt.encode(out);
            }
            Unavailable => out.push(9),
            Internal(msg) => {
                out.push(10);
                msg.encode(out);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        use crate::error::DbError::*;
        Ok(match u8::decode(r)? {
            0 => Aborted(crate::error::AbortReason::decode(r)?),
            1 => UnknownTable(String::decode(r)?),
            2 => UnknownColumn(String::decode(r)?),
            3 => TypeMismatch {
                column: String::decode(r)?,
                expected: intern_expected(&String::decode(r)?),
            },
            4 => DuplicateKey(String::decode(r)?),
            5 => NoSuchTransaction,
            6 => Parse(String::decode(r)?),
            7 => Unsupported(String::decode(r)?),
            8 => ConnectionLost { in_doubt: bool::decode(r)? },
            9 => Unavailable,
            10 => Internal(String::decode(r)?),
            _ => return Err(WireError::Corrupt("db error tag")),
        })
    }
}

/// Write one length-prefixed frame (`u32`-LE byte length, then payload).
pub fn write_frame<W: Write, T: Wire>(w: &mut W, msg: &T) -> io::Result<()> {
    write_frame_counted(w, msg).map(|_| ())
}

/// `msg` as one frame: `u32`-LE byte length, then the encoding, in one
/// buffer.
pub fn framed<T: Wire>(msg: &T) -> Vec<u8> {
    let mut framed = vec![0u8; 4];
    msg.encode(&mut framed);
    let len = (framed.len() - 4) as u32;
    framed[..4].copy_from_slice(&len.to_le_bytes());
    framed
}

/// [`write_frame`], returning the bytes put on the wire (header + payload)
/// so transport instrumentation can count traffic without re-encoding.
/// Header and payload go out in one `write`: on a `TCP_NODELAY` socket two
/// would be two segments, and a peer woken between them.
pub fn write_frame_counted<W: Write, T: Wire>(w: &mut W, msg: &T) -> io::Result<u64> {
    let framed = framed(msg);
    if framed.len() - 4 > MAX_FRAME {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, WireError::TooLarge));
    }
    w.write_all(&framed)?;
    w.flush()?;
    Ok(framed.len() as u64)
}

/// Read one length-prefixed frame and decode it. A malformed frame maps to
/// `io::ErrorKind::InvalidData`; EOF at a frame boundary maps to
/// `io::ErrorKind::UnexpectedEof` (from `read_exact`).
pub fn read_frame<R: Read, T: Wire>(r: &mut R) -> io::Result<T> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(io::ErrorKind::InvalidData, WireError::TooLarge));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    T::from_wire(&payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Frames off a stream whose reads may stop anywhere — a socket with a read
/// timeout: what was read stays here until it is a whole frame.
#[derive(Debug, Default)]
pub struct FrameBuf(Vec<u8>);

impl FrameBuf {
    /// Take the first frame, if all of it has been read: the value and its
    /// size on the wire. A malformed frame maps to `InvalidData`.
    pub fn pop<T: Wire>(&mut self) -> io::Result<Option<(T, u64)>> {
        let Some(len) = self.0.first_chunk::<4>() else { return Ok(None) };
        let len = u32::from_le_bytes(*len) as usize;
        if len > MAX_FRAME {
            return Err(io::Error::new(io::ErrorKind::InvalidData, WireError::TooLarge));
        }
        let Some(payload) = self.0.get(4..4 + len) else { return Ok(None) };
        let v = T::from_wire(payload);
        self.0.drain(..4 + len);
        v.map(|v| Some((v, 4 + len as u64)))
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// One `read` of `r` (a peer writes runs of frames per syscall; this
    /// takes them the same way). `Ok(0)` is end of stream.
    pub fn fill<R: Read>(&mut self, r: &mut R) -> io::Result<usize> {
        let mut chunk = [0u8; 8 << 10];
        let n = r.read(&mut chunk)?;
        self.0.extend_from_slice(&chunk[..n]);
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{GlobalTid, MemberId, ReplicaId, XactId};
    use proptest::prelude::*;

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
    fn primitives_round_trip() {
        round_trip(&0u8);
        round_trip(&u16::MAX);
        round_trip(&0xdead_beefu32);
        round_trip(&u64::MAX);
        round_trip(&(-42i64));
        round_trip(&1.5f64);
        round_trip(&f64::NAN.to_bits()); // NaN via bits: f64 isn't PartialEq-friendly
        round_trip(&true);
        round_trip(&String::from("héllo"));
        round_trip(&vec![1u64, 2, 3]);
        round_trip(&Option::<u64>::None);
        round_trip(&Some(7u32));
        round_trip(&(3u64, String::from("x")));
    }

    #[test]
    fn ids_round_trip() {
        round_trip(&ReplicaId::new(3));
        round_trip(&GlobalTid::new(u64::MAX));
        round_trip(&MemberId::new(9));
        round_trip(&XactId { origin: ReplicaId::new(1), seq: XactId::seq_base(2) + 7 });
        assert_eq!(
            hex(&XactId { origin: ReplicaId::new(1), seq: XactId::seq_base(2) + 7 }),
            "01000000000000000700000000000200"
        );
    }

    #[test]
    fn truncated_inputs_error_not_panic() {
        let bytes = String::from("hello").to_wire();
        for cut in 0..bytes.len() {
            let r = String::from_wire(&bytes[..cut]);
            assert!(r.is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn oversized_length_prefix_rejected_without_allocation() {
        // Claims u32::MAX elements with 4 bytes of backing data.
        let mut bytes = Vec::new();
        u32::MAX.encode(&mut bytes);
        bytes.extend_from_slice(&[0, 0, 0, 0]);
        assert_eq!(Vec::<u64>::from_wire(&bytes), Err(WireError::TooLarge));
        assert_eq!(String::from_wire(&bytes), Err(WireError::TooLarge));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = 5u64.to_wire();
        bytes.push(0);
        assert_eq!(u64::from_wire(&bytes), Err(WireError::TrailingBytes));
    }

    #[test]
    fn bad_discriminants_rejected() {
        assert_eq!(bool::from_wire(&[2]), Err(WireError::Corrupt("bool")));
        assert_eq!(Option::<u8>::from_wire(&[9]), Err(WireError::Corrupt("option tag")));
        assert!(String::from_wire(&[2, 0, 0, 0, 0xff, 0xfe]).is_err());
    }

    #[test]
    fn frames_round_trip_over_a_stream() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &String::from("frame one")).unwrap();
        write_frame(&mut buf, &vec![1u64, 2, 3]).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        let a: String = read_frame(&mut cursor).unwrap();
        let b: Vec<u64> = read_frame(&mut cursor).unwrap();
        assert_eq!(a, "frame one");
        assert_eq!(b, vec![1, 2, 3]);
        let eof: io::Result<String> = read_frame(&mut cursor);
        assert_eq!(eof.unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
    }

    /// One frame is one `write` — and the bytes are the length, then the
    /// encoding, exactly as when they were written separately.
    #[test]
    fn a_frame_is_written_with_one_write_call() {
        #[derive(Default)]
        struct Counting {
            writes: usize,
            bytes: Vec<u8>,
        }
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = Counting::default();
        let msgs = [String::new(), String::from("frame"), "x".repeat(100_000)];
        let mut expected = Vec::new();
        for (i, msg) in msgs.iter().enumerate() {
            let payload = msg.to_wire();
            let sent = write_frame_counted(&mut w, msg).unwrap();
            assert_eq!(sent, 4 + payload.len() as u64);
            assert_eq!(w.writes, i + 1, "frame {i} took more than one write");
            expected.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            expected.extend_from_slice(&payload);
        }
        assert_eq!(w.bytes, expected);
    }

    #[test]
    fn oversized_frame_header_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        let mut cursor = std::io::Cursor::new(buf);
        let r: io::Result<String> = read_frame(&mut cursor);
        assert_eq!(r.unwrap_err().kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn db_errors_round_trip() {
        use crate::error::{AbortReason, DbError};
        let all = [
            DbError::Aborted(AbortReason::SerializationFailure),
            DbError::Aborted(AbortReason::Deadlock),
            DbError::Aborted(AbortReason::ValidationFailure),
            DbError::Aborted(AbortReason::UserRequested),
            DbError::Aborted(AbortReason::ReplicaCrashed),
            DbError::Aborted(AbortReason::Shutdown),
            DbError::UnknownTable("accounts".into()),
            DbError::UnknownColumn("balance".into()),
            DbError::TypeMismatch { column: "price".into(), expected: "float" },
            DbError::TypeMismatch { column: "id".into(), expected: "non-null primary key" },
            DbError::DuplicateKey("[Int(3)]".into()),
            DbError::NoSuchTransaction,
            DbError::Parse("unexpected token".into()),
            DbError::Unsupported("JOIN".into()),
            DbError::ConnectionLost { in_doubt: true },
            DbError::ConnectionLost { in_doubt: false },
            DbError::Unavailable,
            DbError::Internal("invariant".into()),
        ];
        for e in all {
            round_trip(&e);
        }
        let reasons = [
            AbortReason::SerializationFailure,
            AbortReason::Deadlock,
            AbortReason::ValidationFailure,
            AbortReason::UserRequested,
            AbortReason::ReplicaCrashed,
            AbortReason::Shutdown,
        ];
        assert_eq!(reasons.map(|r| hex(&r)).concat(), "000102030405");
        assert_eq!(DbError::from_wire(&[99]), Err(WireError::Corrupt("db error tag")));
    }

    proptest! {
        #[test]
        fn prop_u64_vec_round_trips(v in proptest::collection::vec(any::<u64>(), 0..64)) {
            round_trip(&v);
        }

        #[test]
        fn prop_string_round_trips(s in ".*") {
            round_trip(&s);
        }

        #[test]
        fn prop_xact_round_trips(origin in any::<u64>(), seq in any::<u64>()) {
            round_trip(&XactId { origin: ReplicaId::new(origin), seq });
        }

        #[test]
        fn prop_random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            // Any of these may fail; none may panic.
            let _ = Vec::<u64>::from_wire(&bytes);
            let _ = String::from_wire(&bytes);
            let _ = Option::<(u64, String)>::from_wire(&bytes);
            let _ = XactId::from_wire(&bytes);
        }
    }
}
