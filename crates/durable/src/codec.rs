//! The durable file codec: framing, primitive readers, and typed errors.
//!
//! Every durable file — checkpoint snapshot or checkpoint delta —
//! is one [`envelope`]: a fixed header (magic, version, kind), a
//! length-prefixed payload, and a trailing checksum of the payload bytes —
//! FNV-1a folded over 8-byte words ([`fnv1a_words`]): a file sums whole
//! images, a megabyte at a time, where the byte-wise fold `lmerge-net`
//! keeps on every (small) wire frame costs a multiply per byte. Decoding
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
/// ordinal in the base index. Files of another version are refused
/// ([`DurableError::BadVersion`]), not migrated.
pub const VERSION: u16 = 3;

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

/// Wrap `payload` in the durable envelope: header, length, payload,
/// trailing word-folded FNV-1a checksum.
pub fn envelope(kind: FileKind, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 24);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.push(kind.tag());
    out.push(0); // reserved
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv1a_words(payload).to_le_bytes());
    out
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
