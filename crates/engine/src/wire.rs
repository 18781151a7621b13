use bytes::{Buf, BufMut};
use std::fmt;

/// Why a wire record failed to decode. Malformed or truncated bytes are an
/// expected runtime condition on the (simulated) network path, so decoding
/// reports them as values — they feed the engine's `TaskError` plumbing —
/// instead of panicking the worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the record did.
    Truncated { needed: usize, remaining: usize },
    /// A string field held bytes that are not valid UTF-8.
    InvalidUtf8,
    /// The bytes are structurally invalid for the record type (bad tag,
    /// impossible field value).
    Malformed(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, remaining } => write!(
                f,
                "truncated record: need {needed} more byte(s), {remaining} remaining"
            ),
            WireError::InvalidUtf8 => write!(f, "wire string is not valid UTF-8"),
            WireError::Malformed(why) => write!(f, "malformed record: {why}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Checks that `buf` still holds `needed` bytes before a fixed-width read.
#[inline]
pub fn ensure_remaining(buf: &impl Buf, needed: usize) -> Result<(), WireError> {
    let remaining = buf.remaining();
    if remaining < needed {
        Err(WireError::Truncated { needed, remaining })
    } else {
        Ok(())
    }
}

/// Wire format for records that cross the (simulated) network.
///
/// The shuffle meters traffic by [`Wire::encoded_size`]; `encode`/`try_decode`
/// define the actual byte layout so tests can verify that the metered size is
/// the real serialized size (`encoded_size == encode(..).len()`), and so the
/// engine can optionally materialize shuffles through bytes.
///
/// The format is little-endian and self-delimiting per record (fixed-width
/// scalars, length-prefixed buffers) — the moral equivalent of the flat tuple
/// encoding Spark's serializer produces for the paper's text records.
pub trait Wire: Sized {
    /// Exact number of bytes `encode` will write.
    fn encoded_size(&self) -> usize;
    /// Appends the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut impl BufMut);
    /// Reads one value back, consuming exactly `encoded_size` bytes, or
    /// reports why the bytes do not form a record. Implementations must not
    /// panic on malformed input.
    fn try_decode(buf: &mut impl Buf) -> Result<Self, WireError>;
    /// Reads one value back; consumes exactly `encoded_size` bytes.
    ///
    /// # Panics
    /// Panics on malformed or truncated input — use [`Wire::try_decode`] on
    /// paths that must survive bad bytes.
    #[allow(clippy::panic)]
    fn decode(buf: &mut impl Buf) -> Self {
        match Self::try_decode(buf) {
            Ok(v) => v,
            Err(e) => panic!("wire decode failed: {e}"),
        }
    }
}

macro_rules! wire_scalar {
    ($t:ty, $put:ident, $get:ident) => {
        impl Wire for $t {
            #[inline]
            fn encoded_size(&self) -> usize {
                std::mem::size_of::<$t>()
            }
            #[inline]
            fn encode(&self, buf: &mut impl BufMut) {
                buf.$put(*self);
            }
            #[inline]
            fn try_decode(buf: &mut impl Buf) -> Result<Self, WireError> {
                ensure_remaining(buf, std::mem::size_of::<$t>())?;
                Ok(buf.$get())
            }
        }
    };
}

wire_scalar!(u8, put_u8, get_u8);
wire_scalar!(u16, put_u16_le, get_u16_le);
wire_scalar!(u32, put_u32_le, get_u32_le);
wire_scalar!(u64, put_u64_le, get_u64_le);
wire_scalar!(i32, put_i32_le, get_i32_le);
wire_scalar!(i64, put_i64_le, get_i64_le);
wire_scalar!(f32, put_f32_le, get_f32_le);
wire_scalar!(f64, put_f64_le, get_f64_le);

impl Wire for () {
    #[inline]
    fn encoded_size(&self) -> usize {
        0
    }
    #[inline]
    fn encode(&self, _buf: &mut impl BufMut) {}
    #[inline]
    fn try_decode(_buf: &mut impl Buf) -> Result<Self, WireError> {
        Ok(())
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    #[inline]
    fn encoded_size(&self) -> usize {
        self.0.encoded_size() + self.1.encoded_size()
    }
    #[inline]
    fn encode(&self, buf: &mut impl BufMut) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    #[inline]
    fn try_decode(buf: &mut impl Buf) -> Result<Self, WireError> {
        let a = A::try_decode(buf)?;
        let b = B::try_decode(buf)?;
        Ok((a, b))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    #[inline]
    fn encoded_size(&self) -> usize {
        self.0.encoded_size() + self.1.encoded_size() + self.2.encoded_size()
    }
    #[inline]
    fn encode(&self, buf: &mut impl BufMut) {
        self.0.encode(buf);
        self.1.encode(buf);
        self.2.encode(buf);
    }
    #[inline]
    fn try_decode(buf: &mut impl Buf) -> Result<Self, WireError> {
        let a = A::try_decode(buf)?;
        let b = B::try_decode(buf)?;
        let c = C::try_decode(buf)?;
        Ok((a, b, c))
    }
}

/// Length-prefixed byte buffer (u32 length + payload).
impl Wire for Vec<u8> {
    #[inline]
    fn encoded_size(&self) -> usize {
        4 + self.len()
    }
    #[inline]
    fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u32_le(self.len() as u32);
        buf.put_slice(self);
    }
    #[inline]
    fn try_decode(buf: &mut impl Buf) -> Result<Self, WireError> {
        let len = u32::try_decode(buf)? as usize;
        // A corrupt length prefix must not trigger a huge allocation or an
        // underflow panic in `copy_to_slice`.
        ensure_remaining(buf, len)?;
        let mut v = vec![0u8; len];
        buf.copy_to_slice(&mut v);
        Ok(v)
    }
}

/// Length-prefixed UTF-8 string.
impl Wire for String {
    #[inline]
    fn encoded_size(&self) -> usize {
        4 + self.len()
    }
    #[inline]
    fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u32_le(self.len() as u32);
        buf.put_slice(self.as_bytes());
    }
    #[inline]
    fn try_decode(buf: &mut impl Buf) -> Result<Self, WireError> {
        let bytes = Vec::<u8>::try_decode(buf)?;
        String::from_utf8(bytes).map_err(|_| WireError::InvalidUtf8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;
    use proptest::prelude::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let mut buf = BytesMut::new();
        v.encode(&mut buf);
        assert_eq!(
            buf.len(),
            v.encoded_size(),
            "metered size must match encoding"
        );
        let mut b = buf.freeze();
        let back = T::decode(&mut b);
        assert_eq!(back, v);
        assert!(!b.has_remaining(), "decode must consume exactly the record");
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(42u8);
        roundtrip(65_000u16);
        roundtrip(7u32);
        roundtrip(u64::MAX);
        roundtrip(-13i32);
        roundtrip(i64::MIN);
        roundtrip(1.5f32);
        roundtrip(std::f64::consts::PI);
        roundtrip(());
    }

    #[test]
    fn tuples_roundtrip() {
        roundtrip((7u64, 2.5f64));
        roundtrip((1u32, (2u64, 3.0f64)));
        roundtrip((1u8, 2u16, vec![1u8, 2, 3]));
    }

    #[test]
    fn buffers_roundtrip() {
        roundtrip(Vec::<u8>::new());
        roundtrip(vec![0u8; 1000]);
        roundtrip(String::from("tiger/area-hydrography"));
        roundtrip(String::new());
    }

    #[test]
    fn truncated_scalar_is_an_error() {
        let mut b: &[u8] = &[1, 2, 3];
        assert_eq!(
            u64::try_decode(&mut b),
            Err(WireError::Truncated {
                needed: 8,
                remaining: 3
            })
        );
    }

    #[test]
    fn truncated_buffer_payload_is_an_error() {
        // Length prefix says 100 bytes, only 2 follow — must not panic and
        // must not allocate the phantom payload.
        let mut buf = BytesMut::new();
        buf.put_u32_le(100);
        buf.put_slice(&[9, 9]);
        let mut b = buf.freeze();
        assert_eq!(
            Vec::<u8>::try_decode(&mut b),
            Err(WireError::Truncated {
                needed: 100,
                remaining: 2
            })
        );
    }

    #[test]
    fn truncated_tuple_tail_is_an_error() {
        let mut buf = BytesMut::new();
        (7u64, 1.5f64).encode(&mut buf);
        let mut b = buf.freeze();
        // Drain the first field plus one byte of the second.
        let mut waste = [0u8; 9];
        b.copy_to_slice(&mut waste);
        assert!(matches!(
            <(u64, f64)>::try_decode(&mut b),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn invalid_utf8_is_an_error() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(2);
        buf.put_slice(&[0xFF, 0xFE]);
        let mut b = buf.freeze();
        assert_eq!(String::try_decode(&mut b), Err(WireError::InvalidUtf8));
    }

    #[test]
    #[should_panic(expected = "wire decode failed")]
    fn panicking_decode_names_the_cause() {
        let mut b: &[u8] = &[0];
        let _ = u32::decode(&mut b);
    }

    proptest! {
        #[test]
        fn any_pair_roundtrips(k in any::<u64>(), x in any::<f64>(), payload in prop::collection::vec(any::<u8>(), 0..64)) {
            roundtrip((k, x));
            roundtrip((k, payload.clone()));
        }

        #[test]
        fn truncation_never_panics(data in prop::collection::vec(any::<u8>(), 0..40)) {
            // Any byte soup either decodes or errors — never panics.
            let mut b: &[u8] = &data;
            let _ = <(u64, Vec<u8>)>::try_decode(&mut b);
            let mut b: &[u8] = &data;
            let _ = String::try_decode(&mut b);
        }
    }
}
