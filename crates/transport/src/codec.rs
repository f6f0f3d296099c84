//! The length-checked binary codec: one [`Wire`] trait for every message,
//! snapshot, configuration and checkpoint field.
//!
//! Melissa's wire format and checkpoint files use a fixed little-endian
//! binary layout (no serde format crate is whitelisted for this
//! reproduction, and a fixed layout is the HPC-realistic choice).  Each
//! type's layout is declared once: scalars, strings and containers
//! implement [`Wire`] here, and compound types list their fields (or
//! tagged variants) in [`wire_struct!`](crate::wire_struct) /
//! [`wire_enum!`](crate::wire_enum).
//!
//! Layout rules:
//!
//! * integers and `f64` are little-endian; `usize` travels as `u64`,
//!   `bool` as one `0`/`1` byte, [`Duration`] as `u64` nanoseconds;
//! * `String` and [`PathBuf`] are a `u32` byte length plus UTF-8;
//! * `Option<T>` is a `0`/`1` byte, then the value when present;
//! * `Vec<T>` is a length prefix, then the elements.  The prefix width
//!   belongs to the element type ([`Wire::WIDE_LEN`]): `u64` for `f64`,
//!   `u64` and `u8` sequences, `u32` for everything else;
//! * a struct is its fields in the order its `wire_struct!` lists them,
//!   an enum a `u8` tag followed by the variant's listed fields.
//!
//! Decoding never panics and never trusts a length: every read checks the
//! remaining input first, and a sequence is refused with
//! [`WireError::Truncated`] *before* anything is allocated when its count
//! times the element's [`Wire::MIN_SIZE`] exceeds the bytes left.  A
//! hostile count therefore costs at most as much memory as the frame
//! that carries it.

use std::path::PathBuf;
use std::time::Duration;

pub use bytes::{Buf, BufMut};
use bytes::{Bytes, BytesMut};

/// Decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value was complete.
    Truncated {
        /// What was being decoded.
        what: &'static str,
    },
    /// A tag or invariant did not match.
    Invalid {
        /// Human-readable description.
        what: &'static str,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { what } => write!(f, "truncated wire data while reading {what}"),
            WireError::Invalid { what } => write!(f, "invalid wire data: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Result alias for decoding.
pub type WireResult<T> = Result<T, WireError>;

/// A value with a fixed binary layout.
///
/// Implement it with [`wire_struct!`](crate::wire_struct) or
/// [`wire_enum!`](crate::wire_enum); hand-written impls are for the
/// scalars and containers in this module and the few layouts that are
/// not a plain field list.
pub trait Wire: Sized {
    /// A lower bound on the encoded size of any value, in bytes.  It
    /// bounds sequence decodes: `n` elements need `n * MIN_SIZE` bytes of
    /// input before any memory is reserved for them.
    const MIN_SIZE: usize;

    /// Whether a `Vec<Self>` carries a `u64` (`true`) or a `u32` length
    /// prefix.
    const WIDE_LEN: bool = false;

    /// Appends the encoding of `self`.
    fn encode_into<B: BufMut>(&self, buf: &mut B);

    /// Reads one value, consuming exactly its encoding.
    fn decode_from<B: Buf>(buf: &mut B) -> WireResult<Self>;

    /// The encoding of `self` as one frame.
    fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::new();
        self.encode_into(&mut buf);
        buf.freeze()
    }

    /// Appends the elements of a sequence (no length prefix).  `f64` and
    /// `u8` override this with bulk copies.
    fn encode_seq<B: BufMut>(items: &[Self], buf: &mut B) {
        for item in items {
            item.encode_into(buf);
        }
    }

    /// Reads `len` sequence elements (no length prefix), refusing counts
    /// the remaining input cannot hold before allocating.
    fn decode_seq<B: Buf>(len: usize, buf: &mut B) -> WireResult<Vec<Self>> {
        ensure_room(
            buf,
            len,
            Self::MIN_SIZE.max(1),
            std::any::type_name::<Self>(),
        )?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(Self::decode_from(buf)?);
        }
        Ok(out)
    }
}

/// Fails with [`WireError::Truncated`] unless `count` items of at least
/// `item_size` bytes each fit in the remaining input (checked
/// arithmetic: a product that overflows cannot fit either).
pub fn ensure_room<B: Buf>(
    buf: &B,
    count: usize,
    item_size: usize,
    what: &'static str,
) -> WireResult<()> {
    match count.checked_mul(item_size) {
        Some(n) if n <= buf.remaining() => Ok(()),
        _ => Err(WireError::Truncated { what }),
    }
}

/// `MIN_SIZE` of the field `get` projects to; lets
/// [`wire_struct!`](crate::wire_struct) sum field sizes knowing only the
/// field names.
#[doc(hidden)]
pub const fn min_size_of<S, T: Wire>(_get: fn(&S) -> &T) -> usize {
    T::MIN_SIZE
}

macro_rules! wire_scalar {
    ($($ty:ty, $put:ident, $get:ident, $wide:expr;)*) => {$(
        impl Wire for $ty {
            const MIN_SIZE: usize = std::mem::size_of::<$ty>();
            const WIDE_LEN: bool = $wide;

            #[inline]
            fn encode_into<B: BufMut>(&self, buf: &mut B) {
                buf.$put(*self);
            }

            #[inline]
            fn decode_from<B: Buf>(buf: &mut B) -> WireResult<Self> {
                ensure_room(buf, 1, Self::MIN_SIZE, stringify!($ty))?;
                Ok(buf.$get())
            }
        }
    )*};
}

wire_scalar! {
    u16, put_u16_le, get_u16_le, false;
    u32, put_u32_le, get_u32_le, false;
    u64, put_u64_le, get_u64_le, true;
    i64, put_i64_le, get_i64_le, false;
}

impl Wire for u8 {
    const MIN_SIZE: usize = 1;
    const WIDE_LEN: bool = true;

    #[inline]
    fn encode_into<B: BufMut>(&self, buf: &mut B) {
        buf.put_u8(*self);
    }

    #[inline]
    fn decode_from<B: Buf>(buf: &mut B) -> WireResult<Self> {
        ensure_room(buf, 1, 1, "u8")?;
        Ok(buf.get_u8())
    }

    fn encode_seq<B: BufMut>(items: &[Self], buf: &mut B) {
        buf.put_slice(items);
    }

    fn decode_seq<B: Buf>(len: usize, buf: &mut B) -> WireResult<Vec<Self>> {
        ensure_room(buf, len, 1, "byte string")?;
        let mut out = vec![0u8; len];
        buf.copy_to_slice(&mut out);
        Ok(out)
    }
}

impl Wire for f64 {
    const MIN_SIZE: usize = 8;
    const WIDE_LEN: bool = true;

    #[inline]
    fn encode_into<B: BufMut>(&self, buf: &mut B) {
        buf.put_f64_le(*self);
    }

    #[inline]
    fn decode_from<B: Buf>(buf: &mut B) -> WireResult<Self> {
        ensure_room(buf, 1, 8, "f64")?;
        Ok(buf.get_f64_le())
    }

    fn encode_seq<B: BufMut>(items: &[Self], buf: &mut B) {
        for v in items {
            buf.put_f64_le(*v);
        }
    }

    /// Copy-lean: when the remaining payload is one contiguous chunk
    /// (always true for `Bytes` frames and byte slices), the values are
    /// decoded with one bulk `from_le_bytes` sweep over the chunk — which
    /// optimises to a straight memcpy on little-endian hosts — instead of
    /// `len` cursor round-trips.  True *zero*-copy (borrowing the frame)
    /// is not possible here: the result must own its storage as
    /// `Vec<f64>`, and the payload sits at an arbitrary byte offset
    /// inside the frame, so its 8-byte alignment is never guaranteed.
    /// One aligned bulk copy is the floor.
    fn decode_seq<B: Buf>(len: usize, buf: &mut B) -> WireResult<Vec<Self>> {
        ensure_room(buf, len, 8, "f64 sequence")?;
        let chunk = buf.chunk();
        if chunk.len() >= len * 8 {
            let mut out = vec![0.0f64; len];
            for (o, b) in out.iter_mut().zip(chunk.chunks_exact(8)) {
                *o = f64::from_le_bytes(b.try_into().expect("8-byte chunk"));
            }
            buf.advance(len * 8);
            return Ok(out);
        }
        // Fragmented buffer: fall back to the per-element cursor path.
        Ok((0..len).map(|_| buf.get_f64_le()).collect())
    }
}

impl Wire for usize {
    const MIN_SIZE: usize = 8;

    fn encode_into<B: BufMut>(&self, buf: &mut B) {
        buf.put_u64_le(*self as u64);
    }

    fn decode_from<B: Buf>(buf: &mut B) -> WireResult<Self> {
        usize::try_from(u64::decode_from(buf)?).map_err(|_| WireError::Invalid {
            what: "usize out of range",
        })
    }
}

impl Wire for bool {
    const MIN_SIZE: usize = 1;

    fn encode_into<B: BufMut>(&self, buf: &mut B) {
        buf.put_u8(*self as u8);
    }

    fn decode_from<B: Buf>(buf: &mut B) -> WireResult<Self> {
        match u8::decode_from(buf)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Invalid { what: "bool byte" }),
        }
    }
}

impl Wire for String {
    const MIN_SIZE: usize = 4;

    fn encode_into<B: BufMut>(&self, buf: &mut B) {
        encode_str(self, buf);
    }

    fn decode_from<B: Buf>(buf: &mut B) -> WireResult<Self> {
        let len = u32::decode_from(buf)? as usize;
        ensure_room(buf, len, 1, "string")?;
        let mut bytes = vec![0u8; len];
        buf.copy_to_slice(&mut bytes);
        String::from_utf8(bytes).map_err(|_| WireError::Invalid {
            what: "string is not UTF-8",
        })
    }
}

/// Writes `s` in the `String` layout, so borrowed names encode without
/// a copy.
pub fn encode_str<B: BufMut>(s: &str, buf: &mut B) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

impl Wire for PathBuf {
    const MIN_SIZE: usize = 4;

    fn encode_into<B: BufMut>(&self, buf: &mut B) {
        encode_str(&self.to_string_lossy(), buf);
    }

    fn decode_from<B: Buf>(buf: &mut B) -> WireResult<Self> {
        String::decode_from(buf).map(PathBuf::from)
    }
}

impl Wire for Duration {
    const MIN_SIZE: usize = 8;

    fn encode_into<B: BufMut>(&self, buf: &mut B) {
        buf.put_u64_le(self.as_nanos() as u64);
    }

    fn decode_from<B: Buf>(buf: &mut B) -> WireResult<Self> {
        u64::decode_from(buf).map(Duration::from_nanos)
    }
}

impl<T: Wire> Wire for Option<T> {
    const MIN_SIZE: usize = 1;

    fn encode_into<B: BufMut>(&self, buf: &mut B) {
        match self {
            None => buf.put_u8(0),
            Some(v) => {
                buf.put_u8(1);
                v.encode_into(buf);
            }
        }
    }

    fn decode_from<B: Buf>(buf: &mut B) -> WireResult<Self> {
        match u8::decode_from(buf)? {
            0 => Ok(None),
            1 => T::decode_from(buf).map(Some),
            _ => Err(WireError::Invalid {
                what: "option flag",
            }),
        }
    }
}

impl<T: Wire> Wire for Box<T> {
    const MIN_SIZE: usize = T::MIN_SIZE;

    fn encode_into<B: BufMut>(&self, buf: &mut B) {
        (**self).encode_into(buf);
    }

    fn decode_from<B: Buf>(buf: &mut B) -> WireResult<Self> {
        T::decode_from(buf).map(Box::new)
    }
}

/// Writes a length-prefixed sequence (the `Vec<T>` layout) from a slice.
pub fn encode_slice<T: Wire, B: BufMut>(items: &[T], buf: &mut B) {
    if T::WIDE_LEN {
        buf.put_u64_le(items.len() as u64);
    } else {
        buf.put_u32_le(items.len() as u32);
    }
    T::encode_seq(items, buf);
}

impl<T: Wire> Wire for Vec<T> {
    const MIN_SIZE: usize = if T::WIDE_LEN { 8 } else { 4 };

    fn encode_into<B: BufMut>(&self, buf: &mut B) {
        encode_slice(self, buf);
    }

    fn decode_from<B: Buf>(buf: &mut B) -> WireResult<Self> {
        let len = if T::WIDE_LEN {
            usize::decode_from(buf)?
        } else {
            u32::decode_from(buf)? as usize
        };
        T::decode_seq(len, buf)
    }
}

macro_rules! wire_tuple {
    ($($name:ident),+) => {
        impl<$($name: Wire),+> Wire for ($($name,)+) {
            const MIN_SIZE: usize = 0 $(+ $name::MIN_SIZE)+;

            #[allow(non_snake_case)]
            fn encode_into<BM: BufMut>(&self, buf: &mut BM) {
                let ($($name,)+) = self;
                $($name.encode_into(buf);)+
            }

            fn decode_from<BB: Buf>(buf: &mut BB) -> WireResult<Self> {
                Ok(($($name::decode_from(buf)?,)+))
            }
        }
    };
}

wire_tuple!(A, B);

/// Implements [`Wire`] for a struct by listing its fields in wire order:
/// the encoding is each field's encoding, concatenated.
///
/// The impl destructures the struct exhaustively, so adding a field
/// without listing it here is a compile error.  A field whose type
/// cannot implement [`Wire`] in this crate graph (a foreign struct) may
/// list that struct's own fields inline.
///
/// ```
/// use melissa_transport::codec::Wire;
///
/// #[derive(Debug, PartialEq)]
/// struct Inner { a: u8, b: f64 }
/// #[derive(Debug, PartialEq)]
/// struct Outer { id: u64, name: String, inner: Inner }
///
/// melissa_transport::wire_struct!(Outer { id, name, inner: Inner { a, b } });
///
/// let v = Outer { id: 7, name: "x".into(), inner: Inner { a: 1, b: 0.5 } };
/// let bytes = v.to_bytes();
/// assert_eq!(bytes.len(), 8 + 4 + 1 + 1 + 8);
/// assert_eq!(Outer::decode_from(&mut &bytes[..]).unwrap(), v);
/// ```
#[macro_export]
macro_rules! wire_struct {
    ($ty:ident { $($field:ident $(: $sub:ident { $($subfield:ident),+ $(,)? })?),+ $(,)? }) => {
        impl $crate::codec::Wire for $ty {
            const MIN_SIZE: usize = 0 $(+ $crate::wire_struct!(
                @min $ty, $field $(: $sub { $($subfield),+ })?
            ))+;

            fn encode_into<B: $crate::codec::BufMut>(&self, buf: &mut B) {
                let $ty { $($field),+ } = self;
                $($crate::wire_struct!(@enc buf, $field $(: $sub { $($subfield),+ })?);)+
            }

            fn decode_from<B: $crate::codec::Buf>(
                buf: &mut B,
            ) -> $crate::codec::WireResult<Self> {
                Ok($ty {
                    $($field: $crate::wire_struct!(@dec buf $(, $sub { $($subfield),+ })?)),+
                })
            }
        }
    };
    (@min $ty:ident, $field:ident) => {
        $crate::codec::min_size_of(|s: &$ty| &s.$field)
    };
    (@min $ty:ident, $field:ident : $sub:ident { $($subfield:ident),+ }) => {
        0 $(+ $crate::codec::min_size_of(|s: &$ty| &s.$field.$subfield))+
    };
    (@enc $buf:ident, $field:ident) => {
        $crate::codec::Wire::encode_into($field, $buf)
    };
    (@enc $buf:ident, $field:ident : $sub:ident { $($subfield:ident),+ }) => {{
        let $sub { $($subfield),+ } = $field;
        $($crate::codec::Wire::encode_into($subfield, $buf);)+
    }};
    (@dec $buf:ident) => {
        $crate::codec::Wire::decode_from($buf)?
    };
    (@dec $buf:ident, $sub:ident { $($subfield:ident),+ }) => {
        $sub { $($subfield: $crate::codec::Wire::decode_from($buf)?),+ }
    };
}

/// Implements [`Wire`] for an enum by listing its variants with their
/// `u8` wire tags: the encoding is the tag, then the variant's fields in
/// the listed order.
///
/// The impl matches exhaustively and destructures every struct variant
/// completely, so a new variant or field must be listed here to compile.
/// Decoding an unlisted tag is [`WireError::Invalid`].
///
/// ```
/// use melissa_transport::codec::Wire;
///
/// #[derive(Debug, PartialEq)]
/// enum Op { Get { key: String }, Put { key: String, value: u64 }, Ping }
///
/// melissa_transport::wire_enum!(Op {
///     1 => Get { key },
///     2 => Put { key, value },
///     3 => Ping,
/// });
///
/// assert_eq!(&Op::Ping.to_bytes()[..], &[3]);
/// let put = Op::Put { key: "k".into(), value: 9 };
/// assert_eq!(Op::decode_from(&mut &put.to_bytes()[..]).unwrap(), put);
/// assert!(Op::decode_from(&mut &[4u8][..]).is_err());
/// ```
#[macro_export]
macro_rules! wire_enum {
    ($ty:ident { $($tag:literal => $variant:ident $({ $($field:ident),+ $(,)? })?),+ $(,)? }) => {
        impl $crate::codec::Wire for $ty {
            const MIN_SIZE: usize = 1;

            fn encode_into<B: $crate::codec::BufMut>(&self, buf: &mut B) {
                match self {
                    $($ty::$variant $({ $($field),+ })? => {
                        $crate::codec::BufMut::put_u8(buf, $tag);
                        $($($crate::codec::Wire::encode_into($field, buf);)+)?
                    })+
                }
            }

            fn decode_from<B: $crate::codec::Buf>(
                buf: &mut B,
            ) -> $crate::codec::WireResult<Self> {
                Ok(match <u8 as $crate::codec::Wire>::decode_from(buf)? {
                    $($tag => $ty::$variant $({
                        $($field: $crate::codec::Wire::decode_from(buf)?),+
                    })?,)+
                    _ => {
                        return Err($crate::codec::WireError::Invalid {
                            what: concat!("unknown ", stringify!($ty), " tag"),
                        })
                    }
                })
            }
        }
    };
}

/// Writes one `u32`-length-prefixed frame to a byte stream (the wire
/// framing of every TCP protocol in this crate: data links and the
/// directory service alike).
pub fn write_frame<W: std::io::Write>(w: &mut W, payload: &[u8]) -> std::io::Result<()> {
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)
}

/// Reads one `u32`-length-prefixed frame from a byte stream; `None` on a
/// clean EOF at a frame boundary.  `cap` bounds the accepted length so a
/// corrupt prefix cannot trigger a huge allocation.
pub fn read_frame<R: std::io::Read>(r: &mut R, cap: usize) -> std::io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    match r.read_exact(&mut len_bytes) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > cap {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap {cap}"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode<T: Wire>(bytes: &[u8]) -> WireResult<T> {
        let mut slice = bytes;
        T::decode_from(&mut slice)
    }

    #[test]
    fn primitives_roundtrip() {
        let mut buf = BytesMut::new();
        7u8.encode_into(&mut buf);
        300u16.encode_into(&mut buf);
        70_000u32.encode_into(&mut buf);
        (1u64 << 40).encode_into(&mut buf);
        (-2.5f64).encode_into(&mut buf);
        let mut b = buf.freeze();
        assert_eq!(b[..3], [7, 44, 1], "little-endian");
        assert_eq!(u8::decode_from(&mut b).unwrap(), 7);
        assert_eq!(u16::decode_from(&mut b).unwrap(), 300);
        assert_eq!(u32::decode_from(&mut b).unwrap(), 70_000);
        assert_eq!(u64::decode_from(&mut b).unwrap(), 1 << 40);
        assert_eq!(f64::decode_from(&mut b).unwrap(), -2.5);
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        assert!(matches!(
            decode::<u64>(&[1, 2, 3]),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn f64_slice_roundtrips() {
        let values = vec![1.0, -2.0, f64::MIN_POSITIVE, 1e300];
        assert_eq!(decode::<Vec<f64>>(&values.to_bytes()).unwrap(), values);
    }

    #[test]
    fn f64_vec_with_lying_length_is_truncated() {
        let mut frame = 1000u64.to_le_bytes().to_vec();
        frame.extend_from_slice(&1.0f64.to_le_bytes());
        assert!(matches!(
            decode::<Vec<f64>>(&frame),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn strings_roundtrip() {
        let s = "server/éç/0".to_string();
        assert_eq!(decode::<String>(&s.to_bytes()).unwrap(), s);
        assert_eq!(
            PathBuf::from(&s).to_bytes(),
            s.to_bytes(),
            "paths share the layout"
        );
    }

    #[test]
    fn invalid_utf8_is_invalid() {
        assert!(matches!(
            decode::<String>(&[2, 0, 0, 0, 0xff, 0xfe]),
            Err(WireError::Invalid { .. })
        ));
    }

    #[test]
    fn u64_slice_roundtrips() {
        let values = vec![0u64, 1, u64::MAX];
        assert_eq!(decode::<Vec<u64>>(&values.to_bytes()).unwrap(), values);
    }

    #[test]
    fn sequence_prefix_width_follows_the_element_type() {
        assert_eq!(vec![1.0f64].to_bytes().len(), 8 + 8);
        assert_eq!(vec![1u64].to_bytes().len(), 8 + 8);
        assert_eq!(vec![1u8].to_bytes().len(), 8 + 1);
        assert_eq!(vec![1u32].to_bytes().len(), 4 + 4);
        assert_eq!(vec![String::new()].to_bytes().len(), 4 + 4);
        assert_eq!(vec![(1u64, 2u64)].to_bytes().len(), 4 + 16);
    }

    #[test]
    fn hostile_counts_fail_before_allocating() {
        // 2^40 doubles announced in a 16-byte frame.
        let mut frame = (1u64 << 40).to_le_bytes().to_vec();
        frame.extend_from_slice(&1.0f64.to_le_bytes());
        assert!(decode::<Vec<f64>>(&frame).is_err());
        // Counts whose byte size overflows `usize`.
        assert!(decode::<Vec<u64>>(&u64::MAX.to_le_bytes()).is_err());
        assert!(decode::<Vec<u8>>(&u64::MAX.to_le_bytes()).is_err());
        assert!(decode::<Vec<Vec<u8>>>(&u32::MAX.to_le_bytes()).is_err());
        assert!(decode::<Vec<(String, u64)>>(&u32::MAX.to_le_bytes()).is_err());
        assert!(decode::<String>(&u32::MAX.to_le_bytes()).is_err());
    }

    #[test]
    fn bad_bool_and_option_flags_are_invalid() {
        assert!(matches!(
            decode::<bool>(&[2]),
            Err(WireError::Invalid { .. })
        ));
        assert!(matches!(
            decode::<Option<u8>>(&[2, 0]),
            Err(WireError::Invalid { .. })
        ));
    }
}
