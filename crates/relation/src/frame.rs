//! The workspace's one binary framing: little-endian byte encoding
//! ([`ByteWriter`] / [`ByteReader`]), one CRC-32 protected record format
//! ([`put_record`] / [`next_record`]), and the test-only fault-injection
//! harness ([`failpoint`]).
//!
//! One record:
//!
//! ```text
//! +---------+-----------+-------------------+
//! | len u32 | crc32 u32 | payload (len b)   |
//! +---------+-----------+-------------------+
//! ```
//!
//! Integers are little-endian; the CRC (IEEE 802.3, reflected polynomial
//! `0xEDB88320`) covers the payload. Three formats are sequences of
//! records, and each passes its own cap on the payload length:
//!
//! - the session journal (`squid-core`): one record per session op,
//!   capped at 1 MiB;
//! - the αDB snapshot (`squid-adb`): a 12-byte preamble, then one record
//!   per section, each payload opening with its section tag, capped at
//!   `u32::MAX`;
//! - the replication stream (`squid-serve`): one record per message, each
//!   payload opening with its message tag, capped at 1 GiB.
//!
//! The contract is defensive by construction: every read is
//! bounds-checked, a declared length is checked against the cap before
//! anything is sized by it, and every checksum mismatch surfaces as
//! [`FrameError::Corrupt`] — a bit flip, truncation, or torn write
//! anywhere in a record can produce an error but never a panic, an
//! out-of-memory allocation, or silently wrong bytes.

use std::io::{self, Write};

/// Error type of the framing layer.
///
/// `Io` wraps a genuine I/O failure (disk full, permission, injected
/// crash); `Corrupt` means the bytes were read fine but do not form a
/// valid frame. Truncation while *reading* is classified as `Corrupt`,
/// not `Io`: a torn file is corrupt data, not a failing device.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying I/O failure while reading or writing.
    Io(io::Error),
    /// The bytes do not decode as a valid frame.
    Corrupt {
        /// Which section (or logical region) failed to decode.
        section: String,
        /// Human-readable description of the mismatch.
        detail: String,
    },
}

impl FrameError {
    /// Construct a `Corrupt` error for `section`.
    pub fn corrupt(section: &str, detail: impl Into<String>) -> Self {
        FrameError::Corrupt {
            section: section.to_string(),
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
            FrameError::Corrupt { section, detail } => {
                write!(f, "corrupt {section}: {detail}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Result alias for framing operations.
pub type FrameResult<T> = std::result::Result<T, FrameError>;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected)
// ---------------------------------------------------------------------------

// Slicing-by-8: table[0] is the classic byte-at-a-time table; table[k]
// advances a byte through k additional zero bytes, letting the hot loop
// fold 8 input bytes per iteration instead of one. Same polynomial, same
// result, ~6-8x the throughput — snapshots checksum tens of megabytes on
// every load, so this is on the process-start critical path.
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ c;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Byte encoding
// ---------------------------------------------------------------------------

/// Little-endian byte sink for frame payloads.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consume the writer, yielding the encoded payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a bool as one byte (0/1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Append a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `i64`, little-endian two's complement.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its IEEE-754 bit pattern, little-endian.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Append raw bytes, with no length prefix.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append a length-prefixed UTF-8 string (`u32` byte length).
    pub fn put_str(&mut self, s: &str) {
        let len = u32::try_from(s.len()).expect("string longer than u32::MAX bytes");
        self.put_u32(len);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Bounds-checked little-endian reader over an untrusted payload.
///
/// Every accessor returns [`FrameError::Corrupt`] (tagged with the
/// section name given at construction) instead of panicking when the
/// buffer runs short or decodes to nonsense.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
    section: &'a str,
}

impl<'a> ByteReader<'a> {
    /// Reader over `buf`, attributing decode failures to `section`.
    pub fn new(buf: &'a [u8], section: &'a str) -> Self {
        ByteReader {
            buf,
            pos: 0,
            section,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn corrupt(&self, detail: impl Into<String>) -> FrameError {
        FrameError::corrupt(self.section, detail)
    }

    fn take(&mut self, n: usize) -> FrameResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(self.corrupt(format!(
                "truncated: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> FrameResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a bool encoded as 0/1; any other byte is corrupt.
    pub fn get_bool(&mut self) -> FrameResult<bool> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(self.corrupt(format!("invalid bool byte {b:#04x}"))),
        }
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> FrameResult<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> FrameResult<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Read a little-endian `i64`.
    pub fn get_i64(&mut self) -> FrameResult<i64> {
        let b = self.take(8)?;
        Ok(i64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Read an `f64` from its IEEE-754 bit pattern.
    pub fn get_f64(&mut self) -> FrameResult<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> FrameResult<String> {
        let len = self.get_u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.corrupt("string is not valid UTF-8"))
    }

    /// Read a length-prefixed UTF-8 string as a borrow of the payload —
    /// the zero-alloc variant of [`ByteReader::get_str`] for hot decode
    /// loops whose consumer does not need ownership (e.g. re-interning).
    pub fn get_str_ref(&mut self) -> FrameResult<&'a str> {
        let len = self.get_u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| self.corrupt("string is not valid UTF-8"))
    }

    /// Borrow `n` raw bytes from the payload.
    pub fn get_bytes(&mut self, n: usize) -> FrameResult<&'a [u8]> {
        self.take(n)
    }

    fn array_bytes(&self, n: usize, elem: usize) -> FrameResult<usize> {
        n.checked_mul(elem)
            .filter(|&b| b <= self.remaining())
            .ok_or_else(|| {
                self.corrupt(format!(
                    "array of {n} x {elem}-byte elements exceeds {} remaining bytes",
                    self.remaining()
                ))
            })
    }

    /// Read `n` little-endian `u64`s (one bounds check for the whole
    /// array: bulk arrays make a decode one check per array, not one per
    /// element).
    pub fn get_u64s(&mut self, n: usize) -> FrameResult<Vec<u64>> {
        let raw = self.take(self.array_bytes(n, 8)?)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect())
    }

    /// Read an element count declared as `u64`, validated against the
    /// bytes remaining: each element occupies at least `min_elem_bytes`
    /// (use 1 for variable-size elements). An attacker-controlled count
    /// can therefore never drive an allocation larger than the file
    /// itself — the OOM-by-header-corruption guard.
    pub fn get_count(&mut self, min_elem_bytes: usize, what: &str) -> FrameResult<usize> {
        let n = self.get_u64()?;
        let floor = min_elem_bytes.max(1) as u64;
        let cap = self.remaining() as u64 / floor;
        if n > cap {
            return Err(self.corrupt(format!(
                "{what} count {n} exceeds what {} remaining bytes can hold",
                self.remaining()
            )));
        }
        Ok(n as usize)
    }

    /// Assert the payload is fully consumed; trailing bytes are corrupt.
    pub fn expect_end(&self) -> FrameResult<()> {
        if self.remaining() != 0 {
            return Err(self.corrupt(format!("{} trailing bytes", self.remaining())));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Record framing
// ---------------------------------------------------------------------------

/// Write one record — payload length, payload CRC, payload — and return
/// the bytes written. A payload longer than `max_len` is refused with
/// [`io::ErrorKind::InvalidInput`] before a byte is written.
pub fn put_record<W: Write>(w: &mut W, payload: &[u8], max_len: u32) -> io::Result<usize> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&len| len <= max_len)
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "record of {} bytes exceeds the cap {max_len}",
                    payload.len()
                ),
            )
        })?;
    let mut header = [0u8; 8];
    header[..4].copy_from_slice(&len.to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)?;
    Ok(header.len() + payload.len())
}

/// Parse the record at the start of `bytes`: `Some((payload, consumed))`
/// for a whole record, `None` while the bytes end before the record does.
/// A declared length over `max_len` is [`FrameError::Corrupt`] as soon as
/// the 8 header bytes are present, so no caller ever buffers toward it;
/// so is a payload whose CRC does not match.
pub fn next_record(bytes: &[u8], max_len: u32) -> FrameResult<Option<(&[u8], usize)>> {
    let Some((header, rest)) = bytes.split_first_chunk::<8>() else {
        return Ok(None);
    };
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
    let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    if len > max_len {
        return Err(FrameError::corrupt(
            "record",
            format!("declared length {len} exceeds the cap {max_len}"),
        ));
    }
    let Some(payload) = rest.get(..len as usize) else {
        return Ok(None);
    };
    let actual = crc32(payload);
    if actual != crc {
        return Err(FrameError::corrupt(
            "record",
            format!("checksum mismatch: stored {crc:#010x}, computed {actual:#010x}"),
        ));
    }
    Ok(Some((payload, 8 + payload.len())))
}

// ---------------------------------------------------------------------------
// Fault injection (test-only harness, shipped so downstream crates'
// integration tests can use it too)
// ---------------------------------------------------------------------------

/// Test-only fault injectors used by the recovery test-suites.
///
/// Not wired into any production path: the wrappers exist so every crate
/// in the workspace can exercise kill/truncate/bit-flip crash points
/// against the same primitives without duplicating the harness.
pub mod failpoint {
    use std::io::{self, Read, Write};

    /// Writer that simulates a crash after exactly `limit` bytes: bytes up
    /// to the limit reach the inner writer (a torn, partial write), then
    /// every further write fails with `BrokenPipe`.
    #[derive(Debug)]
    pub struct FailpointWriter<W> {
        inner: W,
        remaining: u64,
    }

    impl<W: Write> FailpointWriter<W> {
        /// Allow `limit` bytes through, then fail.
        pub fn new(inner: W, limit: u64) -> Self {
            FailpointWriter {
                inner,
                remaining: limit,
            }
        }

        /// Recover the inner writer (e.g. to inspect the torn bytes).
        pub fn into_inner(self) -> W {
            self.inner
        }
    }

    impl<W: Write> Write for FailpointWriter<W> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.remaining == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "failpoint: injected crash during write",
                ));
            }
            let n = buf.len().min(self.remaining as usize);
            let written = self.inner.write(&buf[..n])?;
            self.remaining -= written as u64;
            Ok(written)
        }

        fn flush(&mut self) -> io::Result<()> {
            self.inner.flush()
        }
    }

    /// Reader that yields at most `limit` bytes then reports EOF —
    /// simulating a file truncated at byte N.
    #[derive(Debug)]
    pub struct FailpointReader<R> {
        inner: R,
        remaining: u64,
    }

    impl<R: Read> FailpointReader<R> {
        /// Yield `limit` bytes, then EOF.
        pub fn new(inner: R, limit: u64) -> Self {
            FailpointReader {
                inner,
                remaining: limit,
            }
        }
    }

    impl<R: Read> Read for FailpointReader<R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.remaining == 0 {
                return Ok(0);
            }
            let n = buf.len().min(self.remaining as usize);
            let read = self.inner.read(&mut buf[..n])?;
            self.remaining -= read as u64;
            Ok(read)
        }
    }

    /// Flip bit `bit` (0 = LSB of byte 0) in `bytes`.
    pub fn flip_bit(bytes: &mut [u8], bit: usize) {
        bytes[bit / 8] ^= 1 << (bit % 8);
    }

    /// The byte mutator behind the decoder fuzzers. Applies `edits` in
    /// order as `(kind, position, byte)`: kind 0 flips a byte (XOR with
    /// `byte`, at least 1), 1 inserts `byte`, 2 deletes a byte, 3
    /// truncates, any other kind does nothing; positions wrap to the
    /// current length.
    pub fn mutate(mut bytes: Vec<u8>, edits: &[(u8, usize, u8)]) -> Vec<u8> {
        for &(kind, at, byte) in edits {
            let len = bytes.len();
            match kind {
                0 if len > 0 => bytes[at % len] ^= byte.max(1),
                1 => bytes.insert(at % (len + 1), byte),
                2 if len > 0 => {
                    bytes.remove(at % len);
                }
                3 => bytes.truncate(at % (len + 1)),
                _ => {}
            }
        }
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::failpoint::{flip_bit, mutate, FailpointReader, FailpointWriter};
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn writer_reader_round_trip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_i64(-42);
        w.put_f64(-0.5);
        w.put_str("héllo");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, "test");
        assert_eq!(r.get_u8().unwrap(), 7);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert_eq!(r.get_f64().unwrap(), -0.5);
        assert_eq!(r.get_str().unwrap(), "héllo");
        r.expect_end().unwrap();
    }

    #[test]
    fn truncated_reads_are_corrupt_not_panics() {
        let mut r = ByteReader::new(&[1, 2], "short");
        let err = r.get_u64().unwrap_err();
        assert!(matches!(err, FrameError::Corrupt { ref section, .. } if section == "short"));
    }

    #[test]
    fn insane_count_is_rejected() {
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, "counts");
        assert!(matches!(
            r.get_count(8, "rows"),
            Err(FrameError::Corrupt { .. })
        ));
    }

    fn record(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        let written = put_record(&mut out, payload, 1 << 20).unwrap();
        assert_eq!(written, out.len());
        out
    }

    #[test]
    fn record_round_trip_and_crc_detects_flips() {
        let payload = b"some important payload";
        let mut stream = record(payload);
        stream.extend_from_slice(b"next");
        assert_eq!(
            next_record(&stream, 1 << 20).unwrap(),
            Some((&payload[..], 8 + payload.len()))
        );

        // Flip every bit of the record in turn: each must be caught (length
        // cap, CRC, or a record that now ends later), never a panic or a
        // silent success.
        let file = record(payload);
        for bit in 0..file.len() * 8 {
            let mut corrupted = file.clone();
            flip_bit(&mut corrupted, bit);
            let res = next_record(&corrupted, 1 << 20);
            assert!(
                matches!(res, Err(FrameError::Corrupt { .. }) | Ok(None)),
                "bit {bit} flip went undetected"
            );
        }
    }

    #[test]
    fn an_over_cap_record_is_refused_on_both_sides() {
        let mut out = Vec::new();
        let err = put_record(&mut out, &[0; 17], 16).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(out.is_empty(), "nothing is written");
        // The decoder refuses on the header alone.
        let file = record(&[0; 17]);
        assert!(matches!(
            next_record(&file[..8], 16),
            Err(FrameError::Corrupt { .. })
        ));
    }

    #[test]
    fn failpoint_writer_tears_at_byte_n() {
        let mut w = FailpointWriter::new(Vec::new(), 5);
        assert_eq!(w.write(b"abcdefgh").unwrap(), 5);
        assert!(w.write(b"ijk").is_err());
        assert_eq!(w.into_inner(), b"abcde");
    }

    #[test]
    fn failpoint_reader_truncates_at_byte_n() {
        let data = b"abcdefgh".to_vec();
        let mut r = FailpointReader::new(data.as_slice(), 3);
        let mut out = Vec::new();
        std::io::Read::read_to_end(&mut r, &mut out).unwrap();
        assert_eq!(out, b"abc");
    }

    #[test]
    fn truncated_record_is_incomplete() {
        let file = record(b"payload bytes");
        for cut in 0..file.len() {
            assert!(
                matches!(next_record(&file[..cut], 1024), Ok(None)),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn mutate_applies_each_edit_kind() {
        let bytes = b"abcd".to_vec();
        assert_eq!(mutate(bytes.clone(), &[(0, 1, 0)]), b"accd");
        assert_eq!(mutate(bytes.clone(), &[(1, 9, b'x')]), b"abcdx");
        assert_eq!(mutate(bytes.clone(), &[(2, 5, 0)]), b"acd");
        assert_eq!(mutate(bytes.clone(), &[(3, 2, 0)]), b"ab");
        assert_eq!(mutate(bytes.clone(), &[(7, 0, 0)]), b"abcd");
        assert_eq!(mutate(Vec::new(), &[(0, 3, 1), (2, 3, 0)]), b"");
    }
}
