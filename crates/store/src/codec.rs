//! Little-endian binary primitives: fixed-width words, LEB128 varints,
//! length-prefixed byte strings.
//!
//! [`ByteWriter`] appends to a growable buffer; [`ByteReader`] walks a
//! borrowed slice and returns a typed [`CodecError`] instead of
//! panicking on malformed input — decode paths must survive arbitrary
//! bytes because log recovery feeds them torn records. Every `put_*`
//! has exactly one `read_*` inverse; round-trip identity is pinned by
//! proptests.

use std::fmt;

/// Decoding failure: the bytes do not parse as the expected shape.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodecError {
    /// The input ended before the value's last byte.
    UnexpectedEof {
        /// Bytes the read needed.
        needed: usize,
        /// Bytes that remained.
        remaining: usize,
    },
    /// A varint ran past 10 bytes (more than 64 bits of payload).
    VarintOverflow,
    /// An enum tag byte had no corresponding variant.
    InvalidTag {
        /// What was being decoded.
        what: &'static str,
        /// The offending tag value.
        tag: u64,
    },
    /// Decoding finished with unread bytes left over.
    TrailingBytes {
        /// How many bytes were not consumed.
        remaining: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof { needed, remaining } => {
                write!(f, "unexpected EOF: needed {needed} bytes, {remaining} left")
            }
            CodecError::VarintOverflow => write!(f, "varint longer than 64 bits"),
            CodecError::InvalidTag { what, tag } => {
                write!(f, "invalid {what} tag {tag}")
            }
            CodecError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after decode")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// An append-only encoder over a `Vec<u8>`.
#[derive(Debug, Default, Clone)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty writer with `cap` bytes preallocated.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Appends one raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a fixed-width little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (exact round-trip,
    /// including NaN payloads and signed zeros).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a LEB128 varint: 7 bits per byte, high bit = continue.
    /// Small values (lengths, counts, ids) cost one byte instead of
    /// eight.
    pub fn put_varint(&mut self, mut v: u64) {
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

    /// Appends a `usize` as a varint.
    pub fn put_len(&mut self, v: usize) {
        self.put_varint(v as u64);
    }

    /// Appends a `bool` as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Appends a varint length prefix followed by the raw bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_len(bytes.len());
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// The encoded bytes so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer, returning the encoded buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// A cursor over a borrowed byte slice with typed decode errors.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one raw byte.
    pub fn read_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a fixed-width little-endian `u64`.
    pub fn read_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Reads an IEEE-754 bit pattern back into an `f64`.
    pub fn read_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.read_u64()?))
    }

    /// Reads a LEB128 varint.
    pub fn read_varint(&mut self) -> Result<u64, CodecError> {
        let mut v = 0u64;
        for i in 0..10 {
            let byte = self.read_u8()?;
            let payload = (byte & 0x7f) as u64;
            if i == 9 && payload > 1 {
                return Err(CodecError::VarintOverflow);
            }
            v |= payload << (7 * i);
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(CodecError::VarintOverflow)
    }

    /// Reads a varint into a `usize`.
    pub fn read_len(&mut self) -> Result<usize, CodecError> {
        Ok(self.read_varint()? as usize)
    }

    /// Reads a one-byte `bool` (rejecting values other than 0/1 keeps
    /// the encoding canonical).
    pub fn read_bool(&mut self) -> Result<bool, CodecError> {
        match self.read_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(CodecError::InvalidTag {
                what: "bool",
                tag: tag as u64,
            }),
        }
    }

    /// Reads a length-prefixed byte string, borrowing from the input.
    pub fn read_bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.read_len()?;
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn read_str(&mut self) -> Result<String, CodecError> {
        let bytes = self.read_bytes()?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::InvalidTag {
            what: "utf-8 string",
            tag: 0,
        })
    }

    /// Asserts the input was fully consumed — decoders call this last so
    /// a record with extra bytes (a different, newer schema) is an error
    /// rather than silently half-read.
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes {
                remaining: self.remaining(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn varint_boundaries_round_trip() {
        for v in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut w = ByteWriter::new();
            w.put_varint(v);
            let mut r = ByteReader::new(w.as_bytes());
            assert_eq!(r.read_varint().unwrap(), v);
            r.finish().unwrap();
        }
    }

    #[test]
    fn varint_is_compact_for_small_values() {
        let mut w = ByteWriter::new();
        w.put_varint(5);
        assert_eq!(w.len(), 1);
        w.put_varint(300);
        assert_eq!(w.len(), 3);
    }

    #[test]
    fn overlong_varint_is_rejected() {
        // 11 continuation bytes can never terminate within 64 bits.
        let bytes = [0xffu8; 11];
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.read_varint(), Err(CodecError::VarintOverflow));
    }

    #[test]
    fn truncated_reads_report_eof() {
        let mut w = ByteWriter::new();
        w.put_u64(42);
        let bytes = &w.as_bytes()[..5];
        let mut r = ByteReader::new(bytes);
        assert!(matches!(
            r.read_u64(),
            Err(CodecError::UnexpectedEof {
                needed: 8,
                remaining: 5
            })
        ));
    }

    #[test]
    fn bool_rejects_non_canonical_bytes() {
        let mut r = ByteReader::new(&[2]);
        assert!(matches!(
            r.read_bool(),
            Err(CodecError::InvalidTag { what: "bool", .. })
        ));
    }

    #[test]
    fn finish_flags_trailing_bytes() {
        let mut w = ByteWriter::new();
        w.put_u8(1);
        w.put_u8(2);
        let mut r = ByteReader::new(w.as_bytes());
        r.read_u8().unwrap();
        assert_eq!(r.finish(), Err(CodecError::TrailingBytes { remaining: 1 }));
    }

    #[test]
    fn f64_round_trip_is_bit_exact() {
        for v in [0.0, -0.0, 1.5, f64::MIN_POSITIVE, f64::INFINITY, f64::NAN] {
            let mut w = ByteWriter::new();
            w.put_f64(v);
            let mut r = ByteReader::new(w.as_bytes());
            assert_eq!(r.read_f64().unwrap().to_bits(), v.to_bits());
        }
    }

    proptest! {
        #[test]
        fn prop_mixed_record_round_trips(
            a in 0u64..u64::MAX,
            b in -1.0e12f64..1.0e12,
            n in 0usize..200,
            flag_bit in 0u64..2,
        ) {
            let flag = flag_bit == 1;
            let payload: Vec<u8> = (0..n).map(|i| (i * 31 + 7) as u8).collect();
            let mut w = ByteWriter::new();
            w.put_varint(a);
            w.put_f64(b);
            w.put_bool(flag);
            w.put_bytes(&payload);
            w.put_str("suffix");
            let mut r = ByteReader::new(w.as_bytes());
            prop_assert_eq!(r.read_varint().unwrap(), a);
            prop_assert_eq!(r.read_f64().unwrap().to_bits(), b.to_bits());
            prop_assert_eq!(r.read_bool().unwrap(), flag);
            prop_assert_eq!(r.read_bytes().unwrap(), &payload[..]);
            prop_assert_eq!(r.read_str().unwrap(), "suffix");
            r.finish().unwrap();
        }

        #[test]
        fn prop_varint_round_trips(v in 0u64..u64::MAX) {
            let mut w = ByteWriter::new();
            w.put_varint(v);
            let mut r = ByteReader::new(w.as_bytes());
            prop_assert_eq!(r.read_varint().unwrap(), v);
            r.finish().unwrap();
        }
    }
}
