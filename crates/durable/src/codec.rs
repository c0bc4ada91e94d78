//! The durable file codec: framing, primitive readers, and typed errors.
//!
//! Every durable file — checkpoint snapshot or checkpoint delta —
//! is one [`envelope`]: a fixed header (magic, version, kind), a
//! length-prefixed payload, and a trailing checksum of the payload bytes —
//! FNV-1a folded over 8-byte words ([`fnv1a_words`]), the fold every
//! `lmerge-net` wire frame carries too. A writer builds the envelope
//! around its payload in place (`begin`, `seal`). Decoding
//! is defensive end to end: every read is bounds-checked
//! through [`Cursor`], every length is validated against the bytes that
//! remain, and any corruption surfaces as a typed [`DurableError`] — a
//! truncated, bit-flipped, or adversarial file must never panic the
//! reader.

use lmerge_core::hash::fnv1a_words;

/// Magic bytes opening every durable file.
pub const MAGIC: [u8; 4] = *b"LMCK";

/// Current format version. v2 appended the egress/broadcast image
/// (subscriber cursors + retained output tail) to every run image; v3
/// sums the payload by words and names a delta's removed keys by their
/// ordinal in the base index; v4 has the same layout, but the egress
/// image's frames are wire protocol v2 (word-folded checksums). Files of
/// another version are refused ([`DurableError::BadVersion`]), not
/// migrated.
pub const VERSION: u16 = 4;

/// Envelope bytes before the payload: magic, version, kind, reserved,
/// payload length.
const HEADER_LEN: usize = 16;

/// What a durable file contains.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileKind {
    /// A full run image.
    Snapshot,
    /// An incremental image: diffs against the previous checkpoint.
    Delta,
}

impl FileKind {
    /// Stable numeric tag.
    pub fn tag(self) -> u8 {
        match self {
            FileKind::Snapshot => 1,
            FileKind::Delta => 2,
        }
    }

    /// Inverse of [`tag`](FileKind::tag).
    pub fn from_tag(tag: u8) -> Option<FileKind> {
        Some(match tag {
            1 => FileKind::Snapshot,
            2 => FileKind::Delta,
            _ => return None,
        })
    }
}

/// Why a durable file could not be read (or written).
#[derive(Debug)]
pub enum DurableError {
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
    /// The file does not open with [`MAGIC`].
    BadMagic,
    /// The file's format version is not one this build understands.
    BadVersion(u16),
    /// The file's kind tag (or an inner type tag) is unknown.
    BadTag(u8),
    /// The file ends before the structure it promises.
    Truncated,
    /// The payload bytes do not hash to the recorded checksum.
    Checksum {
        /// The checksum recorded in the file.
        expected: u64,
        /// The checksum of the bytes actually present.
        actual: u64,
    },
    /// A structural invariant does not hold (impossible length, non-UTF-8
    /// string, wrong image kind, ...).
    Corrupt(&'static str),
    /// The checkpoint directory holds no restorable checkpoint.
    NoCheckpoint,
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Io(e) => write!(f, "io error: {e}"),
            DurableError::BadMagic => write!(f, "not a durable file (bad magic)"),
            DurableError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            DurableError::BadTag(t) => write!(f, "unknown type tag {t}"),
            DurableError::Truncated => write!(f, "file truncated"),
            DurableError::Checksum { expected, actual } => {
                write!(
                    f,
                    "checksum mismatch: recorded {expected:#x}, computed {actual:#x}"
                )
            }
            DurableError::Corrupt(what) => write!(f, "corrupt file: {what}"),
            DurableError::NoCheckpoint => write!(f, "no checkpoint found"),
        }
    }
}

impl std::error::Error for DurableError {}

impl From<std::io::Error> for DurableError {
    fn from(e: std::io::Error) -> DurableError {
        DurableError::Io(e)
    }
}

/// A bounds-checked little-endian reader over a byte slice.
#[derive(Clone, Debug)]
pub struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `data`.
    pub fn new(data: &'a [u8]) -> Cursor<'a> {
        Cursor { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Consume exactly `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DurableError> {
        if self.remaining() < n {
            return Err(DurableError::Truncated);
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, DurableError> {
        Ok(self.take(1)?[0])
    }

    /// Little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, DurableError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DurableError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DurableError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Little-endian `i32`.
    pub fn i32(&mut self) -> Result<i32, DurableError> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, DurableError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A `u32` element count, sanity-checked against the bytes remaining
    /// (`min_elem_bytes` per element) so a corrupt length cannot drive an
    /// unbounded allocation.
    pub fn count(&mut self, min_elem_bytes: usize) -> Result<usize, DurableError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(DurableError::Corrupt("length exceeds file size"));
        }
        Ok(n)
    }
}

/// Append a `u32` length-prefixed count.
pub fn put_count(buf: &mut Vec<u8>, n: usize) {
    buf.extend_from_slice(&(n as u32).to_le_bytes());
}

/// Start a durable file of `kind`: the envelope header, its length field
/// still zero. Append the payload, then [`seal`] it.
pub(crate) fn begin(kind: FileKind) -> Vec<u8> {
    let mut file = Vec::with_capacity(HEADER_LEN);
    file.extend_from_slice(&MAGIC);
    file.extend_from_slice(&VERSION.to_le_bytes());
    file.push(kind.tag());
    file.push(0); // reserved
    file.extend_from_slice(&0u64.to_le_bytes()); // payload length, patched by `seal`
    file
}

/// Finish a file [`begin`] started: patch the payload length and append
/// the word-folded FNV-1a checksum of the payload.
pub(crate) fn seal(mut file: Vec<u8>) -> Vec<u8> {
    let payload_len = (file.len() - HEADER_LEN) as u64;
    file[HEADER_LEN - 8..HEADER_LEN].copy_from_slice(&payload_len.to_le_bytes());
    let sum = fnv1a_words(&file[HEADER_LEN..]);
    file.extend_from_slice(&sum.to_le_bytes());
    file
}

/// Wrap `payload` in the durable envelope: header, length, payload,
/// trailing word-folded FNV-1a checksum.
pub fn envelope(kind: FileKind, payload: &[u8]) -> Vec<u8> {
    let mut file = begin(kind);
    file.reserve_exact(payload.len() + 8);
    file.extend_from_slice(payload);
    seal(file)
}

/// Open an envelope: verify magic, version, kind tag, length, and
/// checksum, returning the payload bytes.
pub fn open_envelope(data: &[u8]) -> Result<(FileKind, &[u8]), DurableError> {
    let mut cur = Cursor::new(data);
    if cur.take(4)? != MAGIC {
        return Err(DurableError::BadMagic);
    }
    let version = cur.u16()?;
    if version != VERSION {
        return Err(DurableError::BadVersion(version));
    }
    let tag = cur.u8()?;
    let kind = FileKind::from_tag(tag).ok_or(DurableError::BadTag(tag))?;
    if cur.u8()? != 0 {
        // The reserved byte is outside the payload checksum, so it must be
        // pinned here or corruption in it would be silently accepted.
        return Err(DurableError::Corrupt("nonzero reserved header byte"));
    }
    let len = cur.u64()? as usize;
    if len != cur.remaining().saturating_sub(8) {
        return Err(DurableError::Truncated);
    }
    let payload = cur.take(len)?;
    let expected = cur.u64()?;
    let actual = fnv1a_words(payload);
    if expected != actual {
        return Err(DurableError::Checksum { expected, actual });
    }
    Ok((kind, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_round_trips() {
        let body = b"hello durable world".to_vec();
        let file = envelope(FileKind::Snapshot, &body);
        let (kind, payload) = open_envelope(&file).unwrap();
        assert_eq!(kind, FileKind::Snapshot);
        assert_eq!(payload, &body[..]);
    }

    #[test]
    fn corruption_yields_typed_errors_not_panics() {
        let file = envelope(FileKind::Delta, b"payload");
        // Flip a payload bit (payload starts after the 16-byte header):
        // checksum mismatch.
        let mut flipped = file.clone();
        flipped[18] ^= 0x40;
        assert!(matches!(
            open_envelope(&flipped),
            Err(DurableError::Checksum { .. })
        ));
        // Truncate anywhere: typed error.
        for cut in 0..file.len() {
            assert!(open_envelope(&file[..cut]).is_err(), "cut at {cut}");
        }
        // Wrong magic.
        let mut bad = file.clone();
        bad[0] = b'X';
        assert!(matches!(open_envelope(&bad), Err(DurableError::BadMagic)));
        // Future version.
        let mut newer = file.clone();
        newer[4] = 9;
        assert!(matches!(
            open_envelope(&newer),
            Err(DurableError::BadVersion(9))
        ));
        // Unknown kind tag.
        let mut unk = file;
        unk[6] = 99;
        assert!(matches!(open_envelope(&unk), Err(DurableError::BadTag(99))));
    }

    #[test]
    fn a_file_built_in_place_is_the_envelope_of_its_payload() {
        let payload: Vec<u8> = (0..77u8).collect();
        let mut file = begin(FileKind::Delta);
        file.extend_from_slice(&payload);
        let file = seal(file);
        assert_eq!(file, envelope(FileKind::Delta, &payload));
        // The layout: magic, version, kind, reserved, length, payload, sum.
        assert_eq!(&file[..4], b"LMCK");
        assert_eq!(file[4..6], VERSION.to_le_bytes());
        assert_eq!(file[6..8], [FileKind::Delta.tag(), 0]);
        assert_eq!(file[8..16], 77u64.to_le_bytes());
        assert_eq!(&file[16..93], &payload[..]);
        assert_eq!(file[93..], fnv1a_words(&payload).to_le_bytes());
    }

    /// LMCK v3 files carry egress frames of wire protocol 1: a v4 build
    /// refuses them at the envelope instead of failing on the frames.
    #[test]
    fn a_version_3_file_is_refused() {
        let mut v3 = envelope(FileKind::Snapshot, b"a v3 image");
        v3[4..6].copy_from_slice(&3u16.to_le_bytes());
        assert!(matches!(
            open_envelope(&v3),
            Err(DurableError::BadVersion(3))
        ));
    }

    #[test]
    fn cursor_checks_every_read() {
        let mut cur = Cursor::new(&[1, 2, 3]);
        assert_eq!(cur.u8().unwrap(), 1);
        assert!(matches!(cur.u32(), Err(DurableError::Truncated)));
        // A huge claimed count is rejected before any allocation.
        let huge = u32::MAX.to_le_bytes();
        let mut cur = Cursor::new(&huge);
        assert!(matches!(cur.count(1), Err(DurableError::Corrupt(_))));
    }
}
