//! Offline stand-in for the part of `bytes` 1.x that matgnn calls: a
//! cheaply cloneable read cursor (`Bytes`), a growable write buffer
//! (`BytesMut`) and the big-endian `Buf` / `BufMut` accessors.
//!
//! As in the published crate, the `get_*` / `copy_to_slice` / `advance`
//! readers panic when fewer bytes remain than asked for; matgnn's decoders
//! check `remaining()` first.

use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// Shared, immutable bytes with a read position. Cloning shares the
/// allocation.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    pub fn new() -> Bytes {
        Bytes::default()
    }

    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes::from(data.to_vec())
    }

    /// A view of `range` within the unread bytes, sharing the allocation.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let len = self.len();
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(
            lo <= hi && hi <= len,
            "slice {lo}..{hi} out of range for {len} bytes"
        );
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + lo,
            end: self.start + hi,
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Bytes {
        let end = data.len();
        Bytes {
            data: Arc::new(data),
            start: 0,
            end,
        }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(data: &'static [u8]) -> Bytes {
        Bytes::copy_from_slice(data)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        **self == **other
    }
}

impl Eq for Bytes {}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes({} bytes)", self.len())
    }
}

/// Growable write buffer.
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub struct BytesMut(Vec<u8>);

impl BytesMut {
    pub fn new() -> BytesMut {
        BytesMut::default()
    }

    pub fn with_capacity(capacity: usize) -> BytesMut {
        BytesMut(Vec::with_capacity(capacity))
    }

    pub fn freeze(self) -> Bytes {
        Bytes::from(self.0)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

macro_rules! buf_get {
    ($($name:ident -> $t:ty),*) => {$(
        fn $name(&mut self) -> $t {
            let mut raw = [0u8; std::mem::size_of::<$t>()];
            self.copy_to_slice(&mut raw);
            <$t>::from_be_bytes(raw)
        }
    )*};
}

/// Big-endian reads from a cursor.
pub trait Buf {
    fn remaining(&self) -> usize;
    fn chunk(&self) -> &[u8];
    fn advance(&mut self, n: usize);

    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(
            self.remaining() >= dst.len(),
            "buffer underflow: {} < {}",
            self.remaining(),
            dst.len()
        );
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    buf_get!(get_u8 -> u8, get_u16 -> u16, get_u32 -> u32, get_u64 -> u64,
             get_i32 -> i32, get_i64 -> i64, get_f32 -> f32, get_f64 -> f64);
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.end - self.start
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, n: usize) {
        assert!(n <= self.remaining(), "advance past the end");
        self.start += n;
    }
}

macro_rules! buf_put {
    ($($name:ident($t:ty)),*) => {$(
        fn $name(&mut self, v: $t) {
            self.put_slice(&v.to_be_bytes());
        }
    )*};
}

/// Big-endian appends.
pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    buf_put!(
        put_u8(u8),
        put_u16(u16),
        put_u32(u32),
        put_u64(u64),
        put_i32(i32),
        put_i64(i64),
        put_f32(f32),
        put_f64(f64)
    );
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.0.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_is_big_endian() {
        let mut w = BytesMut::new();
        w.put_u8(7);
        w.put_u32(0x0102_0304);
        w.put_u64(9);
        w.put_f32(1.5);
        w.put_f64(-2.25);
        w.put_slice(b"xy");
        let mut r = w.freeze();
        assert_eq!(&r[1..5], &[1, 2, 3, 4]);
        assert_eq!(r.remaining(), 1 + 4 + 8 + 4 + 8 + 2);
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u32(), 0x0102_0304);
        assert_eq!(r.get_u64(), 9);
        assert_eq!(r.get_f32(), 1.5);
        assert_eq!(r.get_f64(), -2.25);
        let mut tail = [0u8; 2];
        r.copy_to_slice(&mut tail);
        assert_eq!(&tail, b"xy");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn clone_and_slice_share_without_moving_the_original() {
        let b = Bytes::from(vec![0, 1, 2, 3, 4, 5]);
        let mut c = b.clone();
        c.advance(2);
        assert_eq!(&*c, &[2, 3, 4, 5]);
        assert_eq!(b.len(), 6);
        assert_eq!(&*c.slice(1..3), &[3, 4]);
        assert_eq!(&*b.slice(..b.len() / 2), &[0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "buffer underflow")]
    fn reading_past_the_end_panics() {
        Bytes::from(vec![1, 2]).get_u32();
    }
}
