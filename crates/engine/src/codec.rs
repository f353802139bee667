//! Versioned binary checkpoint codec.
//!
//! Checkpoints make multi-hour simulations crash-recoverable: a run can be
//! serialized at an epoch boundary, the process killed, and a new process
//! can resume from the bytes and continue *bit-identically*. The format is
//! deliberately hand-rolled (the workspace has no external dependencies)
//! and deliberately boring:
//!
//! ```text
//! +--------+---------+---------------------+----------+
//! | magic  | version |  named sections ... | checksum |
//! | 8 B    | u32     |                     | u64      |
//! +--------+---------+---------------------+----------+
//!
//! section := name_len:u16 | name:utf8 | payload_len:u64 | payload
//! ```
//!
//! All integers are little-endian. The trailing checksum is FNV-1a 64 over
//! every preceding byte (magic and version included). Sections are read
//! back in writing order by *expected name*, so a reader that asks for
//! `"driver"` but finds `"platform"` fails with a typed
//! [`CodecError::SectionMismatch`] instead of silently misinterpreting
//! bytes; a truncated file fails with [`CodecError::Truncated`] naming the
//! section that ran dry.
//!
//! Components participate through the [`Snapshot`] / [`Restore`] traits.
//! `Restore` mutates a freshly constructed value in place rather than
//! building one from scratch, so geometry that comes from configuration
//! (TLB shape, channel bandwidth, frame capacity) never needs to be
//! serialized — only mutable state does.

use std::fmt;
use std::io::Write;

use crate::error::SimError;
use crate::failpoint;

/// File magic: identifies an OASIS checkpoint.
pub const MAGIC: [u8; 8] = *b"OASISCKP";

/// Current checkpoint format version. Bump on any layout change; readers
/// reject other versions with [`CodecError::UnsupportedVersion`].
/// v3 added the hardware-fault section (link health, fault-plan RNG,
/// quarantine state) and the fault-plan fields in the config section.
/// v4 keeps v3's layout but changes what the `progress` section's digest
/// trail holds (the composed digest of [`crate::digest`] instead of FNV-1a
/// over the snapshot bytes), so a resumed run never mixes the two.
/// v5 keeps v4's layout but changes the trace fingerprint the `progress`
/// section opens with (streamed through the digest mixer instead of
/// FNV-1a over the serialized trace), so a v4 file would refuse every
/// trace as a different one.
/// v6 moves the progress scalars and the tracker, fabric, fault and GPU
/// sections into one `platform` section, the bytes the state digest
/// folds, so one encoder and one mirror carry them.
pub const FORMAT_VERSION: u32 = 6;

// The checksum hash lives in `crate::hash` (one FNV-1a implementation for
// the whole workspace); re-exported here because the codec is where every
// historical call-site imported it from.
pub use crate::hash::{fnv1a, Fnv1a};

/// A typed checkpoint-codec failure. Every variant that concerns file
/// content names the section (or header region) where decoding failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The file does not start with the OASIS checkpoint magic.
    BadMagic,
    /// The file's format version is not one this build can read.
    UnsupportedVersion {
        /// Version found in the file.
        found: u32,
        /// Version this build writes and reads.
        expected: u32,
    },
    /// The file ended before the named section's bytes did.
    Truncated {
        /// The section (or `"header"` / `"checksum"`) that ran dry.
        section: String,
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The trailing FNV-1a checksum does not match the file contents.
    ChecksumMismatch {
        /// Checksum recomputed over the file body.
        expected: u64,
        /// Checksum stored in the trailer.
        got: u64,
    },
    /// The reader asked for one section but the file held another —
    /// writer and reader disagree about layout.
    SectionMismatch {
        /// Section the reader expected next.
        expected: String,
        /// Section actually present.
        found: String,
    },
    /// Section bytes decoded but the values are not usable (bad enum tag,
    /// geometry mismatch with the running configuration, ...).
    Malformed {
        /// The section holding the bad value.
        section: String,
        /// What was wrong.
        detail: String,
    },
    /// An underlying I/O read or write failed.
    Io(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "not an OASIS checkpoint (bad magic)"),
            CodecError::UnsupportedVersion { found, expected } => write!(
                f,
                "unsupported checkpoint format version {found} (this build reads {expected})"
            ),
            CodecError::Truncated {
                section,
                needed,
                available,
            } => write!(
                f,
                "checkpoint truncated in section '{section}': needed {needed} bytes, {available} available"
            ),
            CodecError::ChecksumMismatch { expected, got } => write!(
                f,
                "checkpoint checksum mismatch: computed {expected:#018x}, trailer says {got:#018x}"
            ),
            CodecError::SectionMismatch { expected, found } => write!(
                f,
                "expected checkpoint section '{expected}' but found '{found}'"
            ),
            CodecError::Malformed { section, detail } => {
                write!(f, "malformed checkpoint section '{section}': {detail}")
            }
            CodecError::Io(e) => write!(f, "checkpoint i/o failed: {e}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<CodecError> for SimError {
    fn from(e: CodecError) -> Self {
        SimError::Codec(e)
    }
}

/// Where a component's state encoding goes: a checkpoint's [`ByteWriter`],
/// or the digest's [`StateHasher`](crate::digest::StateHasher), which hashes
/// each field as one word.
pub trait Encoder {
    /// Appends a `u8`.
    fn u8(&mut self, v: u8);
    /// Appends a `u16`.
    fn u16(&mut self, v: u16);
    /// Appends a `u32`.
    fn u32(&mut self, v: u32);
    /// Appends a `u64`.
    fn u64(&mut self, v: u64);
    /// Appends a `bool`.
    fn bool(&mut self, v: bool);
}

/// Serializes a component's mutable state into a section payload or a
/// state digest.
pub trait Snapshot {
    /// Appends this component's state to `w`.
    fn snapshot<E: Encoder + ?Sized>(&self, w: &mut E);
}

/// Restores a component's mutable state from a section payload, in place.
///
/// Implementations overwrite the receiver's mutable state entirely; the
/// receiver supplies configuration-derived geometry (capacities, set
/// counts, bandwidths) that the payload intentionally omits.
pub trait Restore {
    /// Replaces this component's state with the payload at `r`.
    fn restore(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError>;
}

/// Little-endian primitive writer used for section payloads.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its little-endian bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Appends a length-prefixed (u16) UTF-8 string.
    pub fn str(&mut self, s: &str) {
        let len = u16::try_from(s.len()).expect("checkpoint string longer than 64 KiB");
        self.u16(len);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends raw bytes with no length prefix.
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer, yielding its buffer.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

impl Encoder for ByteWriter {
    fn u8(&mut self, v: u8) {
        ByteWriter::u8(self, v);
    }

    fn u16(&mut self, v: u16) {
        ByteWriter::u16(self, v);
    }

    fn u32(&mut self, v: u32) {
        ByteWriter::u32(self, v);
    }

    fn u64(&mut self, v: u64) {
        ByteWriter::u64(self, v);
    }

    fn bool(&mut self, v: bool) {
        ByteWriter::bool(self, v);
    }
}

/// Little-endian primitive reader over one section's payload. Carries the
/// section name so every failure is attributable.
#[derive(Debug)]
pub struct ByteReader<'a> {
    section: String,
    data: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `data`, reporting failures against `section`.
    pub fn new(section: impl Into<String>, data: &'a [u8]) -> Self {
        ByteReader {
            section: section.into(),
            data,
            pos: 0,
        }
    }

    /// The section this reader decodes.
    pub fn section(&self) -> &str {
        &self.section
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// True once every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// A [`CodecError::Malformed`] against this reader's section.
    pub fn malformed(&self, detail: impl Into<String>) -> CodecError {
        CodecError::Malformed {
            section: self.section.clone(),
            detail: detail.into(),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated {
                section: self.section.clone(),
                needed: n,
                available: self.remaining(),
            });
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `bool`, rejecting bytes other than 0 and 1.
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(self.malformed(format!("invalid bool byte {b:#04x}"))),
        }
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `u64` and converts it to `usize`, failing on overflow.
    pub fn usize(&mut self) -> Result<usize, CodecError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| self.malformed(format!("count {v} exceeds usize")))
    }

    /// Reads a length-prefixed (u16) UTF-8 string.
    pub fn str(&mut self) -> Result<String, CodecError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.malformed("string payload is not UTF-8"))
    }

    /// Takes every byte not yet consumed.
    pub fn rest(&mut self) -> &'a [u8] {
        let rest = &self.data[self.pos..];
        self.pos = self.data.len();
        rest
    }
}

/// Writes a whole checkpoint: header, named sections, trailing checksum.
#[derive(Debug)]
pub struct CheckpointWriter {
    buf: Vec<u8>,
}

impl Default for CheckpointWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl CheckpointWriter {
    /// Starts a checkpoint: writes the magic and format version.
    pub fn new() -> Self {
        let mut buf = Vec::with_capacity(4096);
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        CheckpointWriter { buf }
    }

    /// Appends one named section whose payload is produced by `fill`.
    pub fn section(&mut self, name: &str, fill: impl FnOnce(&mut ByteWriter)) {
        let mut w = ByteWriter::new();
        fill(&mut w);
        let payload = w.into_vec();
        let name_len = u16::try_from(name.len()).expect("section name longer than 64 KiB");
        self.buf.extend_from_slice(&name_len.to_le_bytes());
        self.buf.extend_from_slice(name.as_bytes());
        self.buf
            .extend_from_slice(&(payload.len() as u64).to_le_bytes());
        self.buf.extend_from_slice(&payload);
    }

    /// Appends one named section holding a [`Snapshot`] component's state.
    pub fn snapshot(&mut self, name: &str, component: &impl Snapshot) {
        self.section(name, |w| component.snapshot(w));
    }

    /// Seals the checkpoint: appends the FNV-1a checksum and returns the
    /// complete byte image.
    pub fn finish(mut self) -> Vec<u8> {
        let sum = fnv1a(&self.buf);
        self.buf.extend_from_slice(&sum.to_le_bytes());
        self.buf
    }
}

/// Writes a sealed checkpoint image to `sink`, routed through the
/// `codec.checkpoint` failpoint site so chaos campaigns can fail or
/// truncate the emission. A truncating fault writes the short prefix to
/// the sink for real — the resulting image must then fail validation on
/// read-back, never parse as a valid checkpoint.
///
/// # Errors
///
/// Returns [`CodecError::Io`] naming the failure (the failpoint site when
/// injected, the OS error otherwise).
pub fn emit_checkpoint(sink: &mut dyn Write, bytes: &[u8]) -> Result<(), CodecError> {
    match failpoint::on_write(
        "codec.checkpoint",
        std::path::Path::new("checkpoint"),
        bytes.len(),
    ) {
        failpoint::WriteFault::Clear => {}
        failpoint::WriteFault::Fail(e) => return Err(CodecError::Io(e.to_string())),
        failpoint::WriteFault::Torn { cut, error } => {
            let _ = sink.write_all(&bytes[..cut]);
            return Err(CodecError::Io(error.to_string()));
        }
    }
    sink.write_all(bytes)
        .map_err(|e| CodecError::Io(e.to_string()))
}

/// Reads a checkpoint produced by [`CheckpointWriter`].
///
/// Construction validates the header; [`CheckpointReader::section`] walks
/// named sections in order; [`CheckpointReader::finish`] verifies the
/// trailing checksum once every section has been consumed. Verifying the
/// checksum *last* keeps truncation errors attributable to the section
/// that actually ran dry.
#[derive(Debug)]
pub struct CheckpointReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> CheckpointReader<'a> {
    /// Opens `data` as a checkpoint, validating magic and version.
    pub fn new(data: &'a [u8]) -> Result<Self, CodecError> {
        if data.len() < MAGIC.len() + 4 {
            return Err(CodecError::Truncated {
                section: "header".into(),
                needed: MAGIC.len() + 4,
                available: data.len(),
            });
        }
        if data[..MAGIC.len()] != MAGIC {
            return Err(CodecError::BadMagic);
        }
        let version = u32::from_le_bytes(data[MAGIC.len()..MAGIC.len() + 4].try_into().unwrap());
        if version != FORMAT_VERSION {
            return Err(CodecError::UnsupportedVersion {
                found: version,
                expected: FORMAT_VERSION,
            });
        }
        Ok(CheckpointReader {
            data,
            pos: MAGIC.len() + 4,
        })
    }

    fn take(&mut self, n: usize, section: &str) -> Result<&'a [u8], CodecError> {
        // The final 8 bytes are the checksum trailer, never section content.
        let body_end = self.data.len().saturating_sub(8);
        let available = body_end.saturating_sub(self.pos);
        if available < n {
            return Err(CodecError::Truncated {
                section: section.into(),
                needed: n,
                available,
            });
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads the next section, requiring its name to be `expect`.
    pub fn section(&mut self, expect: &str) -> Result<ByteReader<'a>, CodecError> {
        let name_len = u16::from_le_bytes(self.take(2, expect)?.try_into().unwrap()) as usize;
        let name_bytes = self.take(name_len, expect)?;
        let found = String::from_utf8(name_bytes.to_vec()).map_err(|_| CodecError::Malformed {
            section: expect.into(),
            detail: "section name is not UTF-8".into(),
        })?;
        if found != expect {
            return Err(CodecError::SectionMismatch {
                expected: expect.into(),
                found,
            });
        }
        let payload_len = u64::from_le_bytes(self.take(8, expect)?.try_into().unwrap());
        let payload_len = usize::try_from(payload_len).map_err(|_| CodecError::Malformed {
            section: expect.into(),
            detail: format!("section length {payload_len} exceeds usize"),
        })?;
        let payload = self.take(payload_len, expect)?;
        Ok(ByteReader::new(expect, payload))
    }

    /// Reads the next section directly into a [`Restore`] component,
    /// requiring the payload to be fully consumed.
    pub fn restore(
        &mut self,
        expect: &str,
        component: &mut impl Restore,
    ) -> Result<(), CodecError> {
        let mut r = self.section(expect)?;
        component.restore(&mut r)?;
        if !r.is_empty() {
            return Err(r.malformed(format!("{} unconsumed payload bytes", r.remaining())));
        }
        Ok(())
    }

    /// Verifies the trailing checksum. Call after the last section.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.data.len() < self.pos + 8 {
            return Err(CodecError::Truncated {
                section: "checksum".into(),
                needed: 8,
                available: self.data.len() - self.pos,
            });
        }
        let body = &self.data[..self.data.len() - 8];
        let trailer = &self.data[self.data.len() - 8..];
        let got = u64::from_le_bytes(trailer.try_into().unwrap());
        let expected = fnv1a(body);
        if got != expected {
            return Err(CodecError::ChecksumMismatch { expected, got });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The FNV-1a reference vectors are pinned in `crate::hash`; the codec
    // checksum tests below exercise the re-export end to end.

    #[test]
    fn round_trip_preserves_primitives() {
        let mut cw = CheckpointWriter::new();
        cw.section("prims", |w| {
            w.u8(0xAB);
            w.bool(true);
            w.u16(0xBEEF);
            w.u32(0xDEAD_BEEF);
            w.u64(0x0123_4567_89AB_CDEF);
            w.f64(1.5);
            w.str("hello");
        });
        let bytes = cw.finish();

        let mut cr = CheckpointReader::new(&bytes).expect("valid header");
        let mut r = cr.section("prims").expect("section present");
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert!(r.bool().unwrap());
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.f64().unwrap(), 1.5);
        assert_eq!(r.str().unwrap(), "hello");
        assert!(r.is_empty());
        cr.finish().expect("checksum intact");
    }

    #[test]
    fn truncated_file_names_the_dry_section() {
        let mut cw = CheckpointWriter::new();
        cw.section("alpha", |w| w.u64(1));
        cw.section("beta", |w| {
            for i in 0..16u64 {
                w.u64(i);
            }
        });
        let bytes = cw.finish();
        // Cut deep into the beta payload.
        let cut = &bytes[..bytes.len() - 64];

        let mut cr = CheckpointReader::new(cut).expect("header survives the cut");
        cr.section("alpha").expect("alpha is intact");
        let err = cr.section("beta").expect_err("beta must be truncated");
        match err {
            CodecError::Truncated { section, .. } => assert_eq!(section, "beta"),
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn flipped_checksum_byte_is_detected() {
        let mut cw = CheckpointWriter::new();
        cw.section("data", |w| w.u64(42));
        let mut bytes = cw.finish();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;

        let mut cr = CheckpointReader::new(&bytes).expect("header unaffected");
        cr.section("data").expect("sections decode");
        assert!(matches!(
            cr.finish(),
            Err(CodecError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn flipped_body_byte_is_detected() {
        let mut cw = CheckpointWriter::new();
        cw.section("data", |w| w.u64(42));
        let mut bytes = cw.finish();
        // Flip a payload byte: the section still decodes (it is just a
        // different u64) but the trailer no longer matches.
        let idx = bytes.len() - 10;
        bytes[idx] ^= 0xFF;
        let mut cr = CheckpointReader::new(&bytes).expect("header unaffected");
        let _ = cr.section("data");
        assert!(matches!(
            cr.finish(),
            Err(CodecError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn wrong_format_version_is_rejected() {
        let mut cw = CheckpointWriter::new();
        cw.section("data", |w| w.u64(7));
        let mut bytes = cw.finish();
        bytes[8] = 0x7F; // low byte of the version field
        match CheckpointReader::new(&bytes) {
            Err(CodecError::UnsupportedVersion { found, expected }) => {
                assert_eq!(found, 0x7F);
                assert_eq!(expected, FORMAT_VERSION);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let bytes = b"NOTACKPT\x01\x00\x00\x00more".to_vec();
        assert!(matches!(
            CheckpointReader::new(&bytes),
            Err(CodecError::BadMagic)
        ));
    }

    #[test]
    fn section_order_is_enforced() {
        let mut cw = CheckpointWriter::new();
        cw.section("first", |w| w.u8(1));
        cw.section("second", |w| w.u8(2));
        let bytes = cw.finish();
        let mut cr = CheckpointReader::new(&bytes).unwrap();
        match cr.section("second") {
            Err(CodecError::SectionMismatch { expected, found }) => {
                assert_eq!(expected, "second");
                assert_eq!(found, "first");
            }
            other => panic!("expected SectionMismatch, got {other:?}"),
        }
    }

    #[test]
    fn errors_display_the_section_name() {
        let e = CodecError::Truncated {
            section: "driver".into(),
            needed: 8,
            available: 3,
        };
        let s = e.to_string();
        assert!(s.contains("driver"), "{s}");
        let e = CodecError::Malformed {
            section: "gpus".into(),
            detail: "set count mismatch".into(),
        };
        assert!(e.to_string().contains("gpus"));
    }

    #[test]
    fn codec_errors_lift_into_sim_errors() {
        let e: SimError = CodecError::BadMagic.into();
        assert!(e.to_string().contains("checkpoint"));
    }
}
