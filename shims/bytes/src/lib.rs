//! Offline stand-in for the `bytes` crate.
//!
//! Provides the [`Buf`]/[`BufMut`] traits and the [`BytesMut`]/[`Bytes`]
//! buffer pair with exactly the little-endian scalar accessors the
//! workspace's `Wire` format uses. Backed by a plain `Vec<u8>` plus a read
//! cursor — no refcounted slices, which nothing here needs.

macro_rules! put_le {
    ($(($put:ident, $t:ty)),*) => {$(
        #[inline]
        fn $put(&mut self, v: $t) {
            self.put_slice(&v.to_le_bytes());
        }
    )*};
}

macro_rules! get_le {
    ($(($get:ident, $t:ty)),*) => {$(
        #[inline]
        fn $get(&mut self) -> $t {
            let mut raw = [0u8; std::mem::size_of::<$t>()];
            self.copy_to_slice(&mut raw);
            <$t>::from_le_bytes(raw)
        }
    )*};
}

/// Write side: append scalars and slices to a growable buffer.
pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    put_le!(
        (put_u16_le, u16),
        (put_u32_le, u32),
        (put_u64_le, u64),
        (put_i32_le, i32),
        (put_i64_le, i64),
        (put_f32_le, f32),
        (put_f64_le, f64)
    );
}

/// Read side: consume scalars and slices from the front of a buffer.
pub trait Buf {
    fn remaining(&self) -> usize;
    fn copy_to_slice(&mut self, dst: &mut [u8]);

    #[inline]
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    #[inline]
    fn get_u8(&mut self) -> u8 {
        let mut raw = [0u8; 1];
        self.copy_to_slice(&mut raw);
        raw[0]
    }

    get_le!(
        (get_u16_le, u16),
        (get_u32_le, u32),
        (get_u64_le, u64),
        (get_i32_le, i32),
        (get_i64_le, i64),
        (get_f32_le, f32),
        (get_f64_le, f64)
    );
}

impl BufMut for Vec<u8> {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

/// Growable write buffer; [`BytesMut::freeze`] turns it into a readable
/// [`Bytes`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    pub fn new() -> Self {
        BytesMut::default()
    }

    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(cap),
        }
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn freeze(self) -> Bytes {
        Bytes {
            data: self.data,
            pos: 0,
        }
    }
}

impl BufMut for BytesMut {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

/// Immutable read buffer with a consuming cursor.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bytes {
    data: Vec<u8>,
    pos: usize,
}

impl Bytes {
    pub fn copy_from_slice(src: &[u8]) -> Self {
        Bytes {
            data: src.to_vec(),
            pos: 0,
        }
    }
}

impl Buf for Bytes {
    #[inline]
    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    #[inline]
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(
            dst.len() <= self.remaining(),
            "buffer underflow: want {} bytes, {} remaining",
            dst.len(),
            self.remaining()
        );
        dst.copy_from_slice(&self.data[self.pos..self.pos + dst.len()]);
        self.pos += dst.len();
    }
}

impl Buf for &[u8] {
    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }

    #[inline]
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(dst.len() <= self.len(), "buffer underflow");
        let (head, tail) = self.split_at(dst.len());
        dst.copy_from_slice(head);
        *self = tail;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip_le() {
        let mut buf = BytesMut::new();
        buf.put_u8(7);
        buf.put_u16_le(65_000);
        buf.put_u32_le(123);
        buf.put_u64_le(u64::MAX);
        buf.put_i32_le(-5);
        buf.put_i64_le(i64::MIN);
        buf.put_f32_le(1.5);
        buf.put_f64_le(std::f64::consts::PI);
        assert_eq!(buf.len(), 1 + 2 + 4 + 8 + 4 + 8 + 4 + 8);
        let mut b = buf.freeze();
        assert_eq!(b.get_u8(), 7);
        assert_eq!(b.get_u16_le(), 65_000);
        assert_eq!(b.get_u32_le(), 123);
        assert_eq!(b.get_u64_le(), u64::MAX);
        assert_eq!(b.get_i32_le(), -5);
        assert_eq!(b.get_i64_le(), i64::MIN);
        assert_eq!(b.get_f32_le(), 1.5);
        assert_eq!(b.get_f64_le(), std::f64::consts::PI);
        assert!(!b.has_remaining());
    }

    #[test]
    fn slice_buf_consumes_from_front() {
        let data = [1u8, 2, 3, 4];
        let mut s: &[u8] = &data;
        let mut out = [0u8; 2];
        s.copy_to_slice(&mut out);
        assert_eq!(out, [1, 2]);
        assert_eq!(s.remaining(), 2);
    }
}
