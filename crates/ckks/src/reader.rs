//! The one bounds-checked little-endian reader under both codecs: the
//! object codecs of [`crate::serialize`] and the serving layer's wire
//! decoders. Every read is bounded by the bytes present, and every failure
//! is a [`Malformed`] that the codec's error type takes in with `From` —
//! never a panic, which the lints denied below (and in both codecs) hold
//! to the compiler.

#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::panic_in_result_fn
)]

use crate::CkksError;

/// Why untrusted bytes did not decode: a short fixed reason such as
/// `"truncated"` or `"trailing bytes"`, which each codec's error type
/// wraps in its own words.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Malformed(pub &'static str);

impl From<Malformed> for CkksError {
    /// `invalid parameters: malformed serialized data: <reason>`.
    fn from(Malformed(what): Malformed) -> Self {
        CkksError::InvalidParameters {
            reason: format!("malformed serialized data: {what}"),
        }
    }
}

/// A bounds-checked little-endian reader over untrusted bytes. Every read
/// that runs past the end fails with `"truncated"`.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// The next `n` bytes; `"truncated"` when fewer remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Malformed> {
        // `get(..n)` on the tail, never `pos + n > len`: the latter
        // overflows on hostile 64-bit length fields.
        let s = self
            .buf
            .get(self.pos..)
            .and_then(|rest| rest.get(..n))
            .ok_or(Malformed("truncated"))?;
        self.pos += n;
        Ok(s)
    }

    /// The next `N` bytes, by value.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], Malformed> {
        self.take(N)?.try_into().map_err(|_| Malformed("truncated"))
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, Malformed> {
        let [b] = self.array()?;
        Ok(b)
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, Malformed> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, Malformed> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, Malformed> {
        Ok(i64::from_le_bytes(self.array()?))
    }

    /// A little-endian IEEE-754 `f64`.
    pub fn f64(&mut self) -> Result<f64, Malformed> {
        Ok(f64::from_le_bytes(self.array()?))
    }

    /// A `u32` byte count and that many bytes.
    pub fn bytes(&mut self) -> Result<&'a [u8], Malformed> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// A `u64` word count and that many little-endian 64-bit words, left
    /// as the bytes they arrived in. The count is bounded by the bytes
    /// actually present, so nothing sizes an allocation by it.
    pub fn words(&mut self) -> Result<&'a [u8], Malformed> {
        let n = self.u64()? as usize;
        if n > (self.buf.len() - self.pos) / 8 {
            return Err(Malformed("length field exceeds remaining bytes"));
        }
        self.take(8 * n)
    }

    /// `"trailing bytes"` unless the input has been read to its end.
    pub fn finish(&self) -> Result<(), Malformed> {
        if self.pos != self.buf.len() {
            return Err(Malformed("trailing bytes"));
        }
        Ok(())
    }
}
