//! Compact byte encoding for relocatable pools.
//!
//! The encoder produces the paper's "relocatable form": a dense,
//! address-independent image in which objects are laid out in *stack
//! form* — each object immediately followed by the objects it owns — so
//! that most ownership links need no stored pointer at all (§4.2.2).
//! Integers use LEB128 varints (signed values zig-zag encoded), and
//! inter-object references are persistent ids — stable table indices —
//! written as varints.

use crate::error::DecodeError;

/// Streaming encoder for a relocatable pool image.
///
/// See the [crate docs](crate) for a worked example.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    #[must_use]
    #[inline]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an encoder with `cap` bytes pre-reserved.
    #[must_use]
    #[inline]
    pub fn with_capacity(cap: usize) -> Self {
        Encoder {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Number of bytes written so far.
    #[must_use]
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns `true` if nothing has been written.
    #[must_use]
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the encoder, returning the finished image.
    #[must_use]
    #[inline]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes a single raw byte (typically an object tag).
    #[inline]
    pub fn write_u8(&mut self, b: u8) {
        self.buf.push(b);
    }

    /// Writes an unsigned varint (LEB128).
    #[inline]
    pub fn write_u64(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Writes an unsigned varint from a `usize`.
    #[inline]
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Writes an unsigned varint from a `u32`.
    #[inline]
    pub fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    /// Writes a signed varint (zig-zag + LEB128).
    #[inline]
    pub fn write_i64(&mut self, v: i64) {
        let zz = ((v << 1) ^ (v >> 63)) as u64;
        self.write_u64(zz);
    }

    /// Writes an `f64` as its raw bit pattern (fixed 8 bytes).
    #[inline]
    pub fn write_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Writes a length-prefixed byte string.
    #[inline]
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_usize(bytes.len());
        self.buf.extend_from_slice(bytes);
    }

    /// Writes a length-prefixed UTF-8 string.
    #[inline]
    pub fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
    }

    /// Writes a boolean as a single byte.
    #[inline]
    pub fn write_bool(&mut self, b: bool) {
        self.buf.push(u8::from(b));
    }
}

/// Streaming decoder over a relocatable pool image.
///
/// Decoding is the *eager swizzling* pass: the entire pool is rebuilt in
/// expanded form in a single forward scan, converting every stored id
/// back into a typed reference.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder positioned at the start of `buf`.
    #[must_use]
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Current byte offset.
    #[must_use]
    #[inline]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes remaining in the image.
    #[must_use]
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Returns `true` if the entire image has been consumed.
    #[must_use]
    #[inline]
    pub fn is_at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Reads a single raw byte.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::UnexpectedEof`] if the image is exhausted.
    #[inline]
    pub fn read_u8(&mut self) -> Result<u8, DecodeError> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or(DecodeError::UnexpectedEof { offset: self.pos })?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads an unsigned varint.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::UnexpectedEof`] on truncation or
    /// [`DecodeError::VarintOverflow`] if the varint exceeds 64 bits.
    #[inline]
    pub fn read_u64(&mut self) -> Result<u64, DecodeError> {
        // Most fields are small: one byte, no loop.
        match self.buf.get(self.pos) {
            Some(&byte) if byte < 0x80 => {
                self.pos += 1;
                Ok(u64::from(byte))
            }
            _ => self.read_long_u64(),
        }
    }

    /// [`Decoder::read_u64`] past its one-byte case.
    fn read_long_u64(&mut self) -> Result<u64, DecodeError> {
        let start = self.pos;
        let mut result = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.read_u8()?;
            if shift >= 64 || (shift == 63 && byte > 1) {
                return Err(DecodeError::VarintOverflow { offset: start });
            }
            result |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(result);
            }
            shift += 7;
        }
    }

    /// Reads an unsigned varint as a `usize`.
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`Decoder::read_u64`].
    #[inline]
    pub fn read_usize(&mut self) -> Result<usize, DecodeError> {
        Ok(self.read_u64()? as usize)
    }

    /// Reads an unsigned varint as a `u32`.
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`Decoder::read_u64`]; values above
    /// `u32::MAX` are reported as corruption.
    #[inline]
    pub fn read_u32(&mut self) -> Result<u32, DecodeError> {
        match self.buf.get(self.pos) {
            Some(&byte) if byte < 0x80 => {
                self.pos += 1;
                Ok(u32::from(byte))
            }
            _ => self.read_long_u32(),
        }
    }

    /// [`Decoder::read_u32`] past its one-byte case.
    fn read_long_u32(&mut self) -> Result<u32, DecodeError> {
        let v = self.read_long_u64()?;
        u32::try_from(v).map_err(|_| DecodeError::Corrupt {
            what: "u32 field out of range",
        })
    }

    /// Reads a signed (zig-zag) varint.
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`Decoder::read_u64`].
    #[inline]
    pub fn read_i64(&mut self) -> Result<i64, DecodeError> {
        let zz = self.read_u64()?;
        Ok(((zz >> 1) as i64) ^ -((zz & 1) as i64))
    }

    /// Reads a raw 8-byte `f64` bit pattern.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::UnexpectedEof`] on truncation.
    #[inline]
    pub fn read_f64(&mut self) -> Result<f64, DecodeError> {
        if self.remaining() < 8 {
            return Err(DecodeError::UnexpectedEof { offset: self.pos });
        }
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(&self.buf[self.pos..self.pos + 8]);
        self.pos += 8;
        Ok(f64::from_bits(u64::from_le_bytes(bytes)))
    }

    /// Reads a length-prefixed byte string.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::UnexpectedEof`] if the stated length
    /// overruns the image.
    #[inline]
    pub fn read_bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.read_usize()?;
        if self.remaining() < len {
            return Err(DecodeError::UnexpectedEof { offset: self.pos });
        }
        let s = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(s)
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::Corrupt`] if the bytes are not valid UTF-8.
    #[inline]
    pub fn read_str(&mut self) -> Result<&'a str, DecodeError> {
        let bytes = self.read_bytes()?;
        std::str::from_utf8(bytes).map_err(|_| DecodeError::Corrupt {
            what: "string field is not UTF-8",
        })
    }

    /// Reads a boolean byte.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::Corrupt`] for any byte other than 0 or 1.
    #[inline]
    pub fn read_bool(&mut self) -> Result<bool, DecodeError> {
        match self.read_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError::Corrupt {
                what: "boolean field out of range",
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_u64(v: u64) -> u64 {
        let mut e = Encoder::new();
        e.write_u64(v);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        let got = d.read_u64().unwrap();
        assert!(d.is_at_end());
        got
    }

    fn round_trip_i64(v: i64) -> i64 {
        let mut e = Encoder::new();
        e.write_i64(v);
        let bytes = e.into_bytes();
        Decoder::new(&bytes).read_i64().unwrap()
    }

    #[test]
    fn u64_round_trips() {
        for v in [0, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            assert_eq!(round_trip_u64(v), v);
        }
    }

    #[test]
    fn i64_round_trips() {
        for v in [0, 1, -1, 63, -64, 64, i64::MIN, i64::MAX] {
            assert_eq!(round_trip_i64(v), v);
        }
    }

    #[test]
    fn small_values_are_one_byte() {
        let mut e = Encoder::new();
        e.write_u64(5);
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn f64_round_trips() {
        for v in [0.0, -1.5, f64::MAX, f64::MIN_POSITIVE] {
            let mut e = Encoder::new();
            e.write_f64(v);
            let bytes = e.into_bytes();
            assert_eq!(
                Decoder::new(&bytes).read_f64().unwrap().to_bits(),
                v.to_bits()
            );
        }
    }

    #[test]
    fn strings_round_trip() {
        let mut e = Encoder::new();
        e.write_str("hello");
        e.write_str("");
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.read_str().unwrap(), "hello");
        assert_eq!(d.read_str().unwrap(), "");
        assert!(d.is_at_end());
    }

    #[test]
    fn truncated_image_reports_eof() {
        let mut e = Encoder::new();
        e.write_u64(1 << 40);
        let mut bytes = e.into_bytes();
        bytes.truncate(2);
        let mut d = Decoder::new(&bytes);
        assert!(matches!(
            d.read_u64(),
            Err(DecodeError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn overlong_varint_reports_overflow() {
        let bytes = [0xff; 11];
        let mut d = Decoder::new(&bytes);
        assert!(matches!(
            d.read_u64(),
            Err(DecodeError::VarintOverflow { .. })
        ));
    }

    #[test]
    fn bad_bool_is_corrupt() {
        let bytes = [7u8];
        let mut d = Decoder::new(&bytes);
        assert!(matches!(d.read_bool(), Err(DecodeError::Corrupt { .. })));
    }
}
