//! Offline shim for the `bytes` crate: the [`BufMut`] subset the
//! workspace's byte formats write with (little-endian integer and float
//! puts into `Vec<u8>` writers). Reading is `laqy::codec::Reader`'s, which
//! is bounds-checked; this crate has no reader. See `shims/README.md`.

/// Write-side growable byte sink.
///
/// Every method is `#[inline]`, as upstream's are: encoders in other
/// crates call them once per value, and an out-of-line call per value
/// costs a third of an answer's encode rate.
pub trait BufMut {
    /// Append raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Append one byte.
    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Append a little-endian `u32`.
    #[inline]
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    #[inline]
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `i64`.
    #[inline]
    fn put_i64_le(&mut self, v: i64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian IEEE-754 `f64`.
    #[inline]
    fn put_f64_le(&mut self, v: f64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for Vec<u8> {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

impl<T: BufMut + ?Sized> BufMut for &mut T {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        (**self).put_slice(src)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_width_lands_little_endian() {
        let mut buf: Vec<u8> = Vec::new();
        buf.put_u8(0xAB);
        buf.put_u32_le(0xDEAD_BEEF);
        buf.put_u64_le(0x0123_4567_89AB_CDEF);
        buf.put_i64_le(-42);
        buf.put_f64_le(0.5);
        buf.put_slice(b"xyz");

        let mut want = vec![0xAB];
        want.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        want.extend_from_slice(&0x0123_4567_89AB_CDEFu64.to_le_bytes());
        want.extend_from_slice(&(-42i64).to_le_bytes());
        want.extend_from_slice(&0.5f64.to_le_bytes());
        want.extend_from_slice(b"xyz");
        assert_eq!(buf, want);
    }

    #[test]
    fn works_through_mut_reference() {
        let mut data = Vec::new();
        let w = &mut data;
        w.put_u32_le(1);
        assert_eq!(data, [1, 0, 0, 0]);
    }
}
