//! The versioned, length-prefixed binary wire format.
//!
//! Every frame crossing a socket has the same envelope:
//!
//! | offset | size | field |
//! |-------:|-----:|-------|
//! | 0      | 4    | magic `0x4C4D5247` (LE) |
//! | 4      | 2    | protocol version (LE, currently [`PROTOCOL_VERSION`]) |
//! | 6      | 1    | frame type |
//! | 7      | 1    | flags (reserved, must be 0) |
//! | 8      | 4    | payload length (LE, ≤ [`MAX_PAYLOAD_LEN`]) |
//! | 12     | n    | payload |
//! | 12+n   | 8    | word-folded FNV-1a 64 checksum of bytes `[0, 12+n)` (LE) |
//!
//! The checksum is the workspace's one frame/file checksum,
//! [`lmerge_core::hash::fnv1a_words`] — the fold LMCK checkpoint files
//! carry too — so its constants are pinned by the core crate's reference
//! vectors and cannot drift per subsystem. It folds eight bytes per
//! multiply: a 1 062-byte frame of the paper's 1 000-byte payloads sums in
//! a tenth of the byte-wise fold's time. Protocol version 1 summed byte
//! by byte; a version-1 peer is refused at the envelope.
//!
//! Data frames (`insert`/`adjust`/`stable`) carry two transport fields on
//! top of the element model: a per-session monotone `seq` (the replayer's
//! feed index — what resume-from-ack arithmetic runs on) and the element's
//! virtual arrival stamp `at_us`. Shipping the *virtual* time is what
//! makes networked delivery reproduce the in-process run exactly: the
//! receiving [`crate::server::NetSource`] re-creates the same
//! `TimedElement`s the in-process query would have consumed, so the
//! merge's virtual-time schedule is independent of real socket timing.
//!
//! The decoder never panics on hostile input: every malformed, truncated,
//! oversized, or corrupted frame maps to a typed [`WireError`]
//! (adversarial coverage lives in `tests/wire_adversarial.rs`).

use bytes::Bytes;
use lmerge_core::hash::fnv1a_words;
use lmerge_temporal::{Element, Time, VTime, Value};
use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Frame magic: `LMRG` interpreted as a little-endian u32.
pub const MAGIC: u32 = 0x4C4D_5247;

/// The protocol version this build speaks (offered in `hello`, echoed in
/// `welcome`; a mismatch fails the handshake, and a frame of another
/// version fails [`decode`]). Version 2 sums frames by words.
pub const PROTOCOL_VERSION: u16 = 2;

/// Envelope bytes before the payload: magic + version + type + flags + len.
pub const HEADER_LEN: usize = 12;

/// Trailing checksum bytes.
pub const CHECKSUM_LEN: usize = 8;

/// Hard cap on a frame's payload length. A 1000-byte paper payload plus
/// transport fields is under 2 KiB, so 1 MiB leaves two orders of
/// magnitude of headroom while bounding what a hostile length field can
/// make the receiver allocate.
pub const MAX_PAYLOAD_LEN: u32 = 1 << 20;

/// Frame type tags (byte 6 of the envelope).
mod tag {
    pub const HELLO: u8 = 1;
    pub const WELCOME: u8 = 2;
    pub const INSERT: u8 = 3;
    pub const ADJUST: u8 = 4;
    pub const STABLE: u8 = 5;
    pub const CREDIT: u8 = 6;
    pub const ACK: u8 = 7;
    pub const BYE: u8 = 8;
    pub const SUBSCRIBE: u8 = 9;
}

/// Typed decode/transport failure. Every hostile input maps here; the
/// decoder has no panicking paths.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer or stream ended inside a frame.
    Truncated,
    /// The first four bytes are not [`MAGIC`].
    BadMagic(u32),
    /// The peer speaks a protocol version this build does not.
    BadVersion(u16),
    /// Unknown frame type tag.
    UnknownType(u8),
    /// Reserved flags byte was non-zero.
    BadFlags(u8),
    /// The length field exceeds [`MAX_PAYLOAD_LEN`].
    Oversized(u32),
    /// The trailing checksum does not match the frame bytes.
    Checksum {
        /// Checksum computed over the received bytes.
        expected: u64,
        /// Checksum the frame carried.
        got: u64,
    },
    /// The payload does not parse as its frame type claims.
    Malformed(&'static str),
    /// An I/O error from the underlying stream.
    Io(std::io::ErrorKind),
    /// The peer violated the session protocol (wrong frame for the state).
    Protocol(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::BadMagic(m) => write!(f, "bad magic {m:#010x}"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::UnknownType(t) => write!(f, "unknown frame type {t}"),
            WireError::BadFlags(x) => write!(f, "reserved flags set: {x:#04x}"),
            WireError::Oversized(n) => {
                write!(f, "payload length {n} exceeds cap {MAX_PAYLOAD_LEN}")
            }
            WireError::Checksum { expected, got } => {
                write!(
                    f,
                    "checksum mismatch: computed {expected:#018x}, frame carried {got:#018x}"
                )
            }
            WireError::Malformed(what) => write!(f, "malformed payload: {what}"),
            WireError::Io(kind) => write!(f, "i/o error: {kind:?}"),
            WireError::Protocol(what) => write!(f, "protocol violation: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> WireError {
        WireError::Io(e.kind())
    }
}

/// One decoded wire frame.
///
/// The three element kinds collapse into [`Frame::Data`]: transport cares
/// about `seq`/`at`, not about which kind it is moving, and the encoder
/// picks the tag from the element itself.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// Client → server: open a session for one input.
    Hello {
        /// The protocol version the client speaks.
        protocol: u16,
        /// The input id this connection will feed.
        input: u32,
    },
    /// Server → client: session accepted; resume/credit state.
    Welcome {
        /// Echo of the session's input id.
        input: u32,
        /// First frame sequence the server will accept (0 = from the top;
        /// a rejoining client skips everything below this).
        resume_seq: u64,
        /// The last stable point the server durably consumed from this
        /// input (`Time::MIN` if none) — the paper's catch-up point.
        resume_stable: Time,
        /// Initial frame credits (ring slots currently free).
        credits: u32,
    },
    /// A timed stream element (insert, adjust, or stable punctuation).
    Data {
        /// Session-monotone sequence number (the feed index).
        seq: u64,
        /// The element's virtual arrival time.
        at: VTime,
        /// The element itself.
        element: Element<Value>,
    },
    /// Server → client: `n` more frame credits (ring slots freed).
    Credit {
        /// Credits granted.
        n: u32,
    },
    /// Server → client: durable-consumption acknowledgement.
    Ack {
        /// Highest data sequence consumed by the merge side.
        seq: u64,
        /// The stable point that consumption reached.
        stable: Time,
    },
    /// Clean end of stream (either direction).
    Bye,
    /// Client → egress server: open a subscription to the merged output.
    ///
    /// The symmetric mirror of [`Frame::Hello`]: the server answers with a
    /// [`Frame::Welcome`] whose `resume_seq` is the first output sequence
    /// it will actually send (clamped up to the compaction horizon when
    /// the requested prefix is gone), then streams [`Frame::Data`] frames
    /// against the subscriber's credits.
    Subscribe {
        /// The protocol version the subscriber speaks.
        protocol: u16,
        /// The subscriber's stable identity (cursor key across rejoins).
        subscriber: u64,
        /// Index of the filter class this session wants.
        filter: u32,
        /// First output sequence the subscriber still needs (0 = from the
        /// top; a rejoining subscriber skips everything below this).
        resume_from: u64,
        /// Initial frame credits the subscriber grants the server.
        credits: u32,
    },
}

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// A bounds-checked little-endian cursor over a payload slice.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(WireError::Malformed("field past payload end"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn done(&self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes after payload fields"))
        }
    }
}

impl Frame {
    /// The frame's type tag.
    fn tag(&self) -> u8 {
        match self {
            Frame::Hello { .. } => tag::HELLO,
            Frame::Welcome { .. } => tag::WELCOME,
            Frame::Data { element, .. } => match element {
                Element::Insert(_) => tag::INSERT,
                Element::Adjust { .. } => tag::ADJUST,
                Element::Stable(_) => tag::STABLE,
            },
            Frame::Credit { .. } => tag::CREDIT,
            Frame::Ack { .. } => tag::ACK,
            Frame::Bye => tag::BYE,
            Frame::Subscribe { .. } => tag::SUBSCRIBE,
        }
    }

    fn encode_payload(&self, buf: &mut Vec<u8>) {
        match self {
            Frame::Hello { protocol, input } => {
                put_u16(buf, *protocol);
                put_u32(buf, *input);
            }
            Frame::Welcome {
                input,
                resume_seq,
                resume_stable,
                credits,
            } => {
                put_u32(buf, *input);
                put_u64(buf, *resume_seq);
                put_i64(buf, resume_stable.0);
                put_u32(buf, *credits);
            }
            Frame::Data { seq, at, element } => {
                put_u64(buf, *seq);
                put_u64(buf, at.0);
                match element {
                    Element::Insert(e) => {
                        put_i64(buf, e.vs.0);
                        put_i64(buf, e.ve.0);
                        put_i64(buf, e.payload.key as i64);
                        put_u32(buf, e.payload.body.len() as u32);
                        buf.extend_from_slice(&e.payload.body);
                    }
                    Element::Adjust {
                        payload,
                        vs,
                        vold,
                        ve,
                    } => {
                        put_i64(buf, vs.0);
                        put_i64(buf, vold.0);
                        put_i64(buf, ve.0);
                        put_i64(buf, payload.key as i64);
                        put_u32(buf, payload.body.len() as u32);
                        buf.extend_from_slice(&payload.body);
                    }
                    Element::Stable(t) => {
                        put_i64(buf, t.0);
                    }
                }
            }
            Frame::Credit { n } => put_u32(buf, *n),
            Frame::Ack { seq, stable } => {
                put_u64(buf, *seq);
                put_i64(buf, stable.0);
            }
            Frame::Bye => {}
            Frame::Subscribe {
                protocol,
                subscriber,
                filter,
                resume_from,
                credits,
            } => {
                put_u16(buf, *protocol);
                put_u64(buf, *subscriber);
                put_u32(buf, *filter);
                put_u64(buf, *resume_from);
                put_u32(buf, *credits);
            }
        }
    }
}

/// Encode one frame, appending its full envelope to `buf`.
pub fn encode_into(frame: &Frame, buf: &mut Vec<u8>) {
    let start = buf.len();
    put_u32(buf, MAGIC);
    put_u16(buf, PROTOCOL_VERSION);
    buf.push(frame.tag());
    buf.push(0); // flags
    put_u32(buf, 0); // payload length, patched below
    frame.encode_payload(buf);
    let payload_len = (buf.len() - start - HEADER_LEN) as u32;
    buf[start + 8..start + 12].copy_from_slice(&payload_len.to_le_bytes());
    let sum = fnv1a_words(&buf[start..]);
    put_u64(buf, sum);
}

/// Encode one frame into a fresh buffer.
pub fn encode(frame: &Frame) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN + CHECKSUM_LEN + 32);
    encode_into(frame, &mut buf);
    buf
}

fn parse_payload(frame_type: u8, payload: &[u8]) -> Result<Frame, WireError> {
    let mut c = Cursor::new(payload);
    let frame = match frame_type {
        tag::HELLO => Frame::Hello {
            protocol: c.u16()?,
            input: c.u32()?,
        },
        tag::WELCOME => Frame::Welcome {
            input: c.u32()?,
            resume_seq: c.u64()?,
            resume_stable: Time(c.i64()?),
            credits: c.u32()?,
        },
        tag::INSERT => {
            let seq = c.u64()?;
            let at = VTime(c.u64()?);
            let vs = Time(c.i64()?);
            let ve = Time(c.i64()?);
            let key = read_key(&mut c)?;
            let body = read_body(&mut c)?;
            Frame::Data {
                seq,
                at,
                element: Element::insert(Value { key, body }, vs, ve),
            }
        }
        tag::ADJUST => {
            let seq = c.u64()?;
            let at = VTime(c.u64()?);
            let vs = Time(c.i64()?);
            let vold = Time(c.i64()?);
            let ve = Time(c.i64()?);
            let key = read_key(&mut c)?;
            let body = read_body(&mut c)?;
            Frame::Data {
                seq,
                at,
                element: Element::Adjust {
                    payload: Value { key, body },
                    vs,
                    vold,
                    ve,
                },
            }
        }
        tag::STABLE => Frame::Data {
            seq: c.u64()?,
            at: VTime(c.u64()?),
            element: Element::Stable(Time(c.i64()?)),
        },
        tag::CREDIT => Frame::Credit { n: c.u32()? },
        tag::ACK => Frame::Ack {
            seq: c.u64()?,
            stable: Time(c.i64()?),
        },
        tag::BYE => Frame::Bye,
        tag::SUBSCRIBE => Frame::Subscribe {
            protocol: c.u16()?,
            subscriber: c.u64()?,
            filter: c.u32()?,
            resume_from: c.u64()?,
            credits: c.u32()?,
        },
        t => return Err(WireError::UnknownType(t)),
    };
    c.done()?;
    Ok(frame)
}

/// Payload keys travel as i64 for alignment but must fit the i32 field.
fn read_key(c: &mut Cursor<'_>) -> Result<i32, WireError> {
    let wide = c.i64()?;
    i32::try_from(wide).map_err(|_| WireError::Malformed("payload key exceeds i32"))
}

fn read_body(c: &mut Cursor<'_>) -> Result<Bytes, WireError> {
    let len = c.u32()? as usize;
    let body = c
        .take(len)
        .map_err(|_| WireError::Malformed("body_len past payload end"))?;
    Ok(Bytes::copy_from_slice(body))
}

/// Validate the envelope at the front of `buf`, returning the frame type
/// and the frame's full on-wire length. Needs only the header: a hostile
/// length is [`WireError::Oversized`] before a byte of body is buffered.
fn parse_header(buf: &[u8]) -> Result<(u8, usize), WireError> {
    let Some(header) = buf.first_chunk::<HEADER_LEN>() else {
        return Err(WireError::Truncated);
    };
    let magic = u32::from_le_bytes(header[0..4].try_into().unwrap());
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = u16::from_le_bytes(header[4..6].try_into().unwrap());
    if version != PROTOCOL_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let frame_type = header[6];
    if !(tag::HELLO..=tag::SUBSCRIBE).contains(&frame_type) {
        return Err(WireError::UnknownType(frame_type));
    }
    if header[7] != 0 {
        return Err(WireError::BadFlags(header[7]));
    }
    let payload_len = u32::from_le_bytes(header[8..12].try_into().unwrap());
    if payload_len > MAX_PAYLOAD_LEN {
        return Err(WireError::Oversized(payload_len));
    }
    Ok((frame_type, HEADER_LEN + payload_len as usize + CHECKSUM_LEN))
}

/// Decode one frame from the front of `buf`, returning it and the bytes
/// consumed. [`WireError::Truncated`] means "not a whole frame yet" — a
/// streaming caller can read more and retry.
pub fn decode(buf: &[u8]) -> Result<(Frame, usize), WireError> {
    let (frame_type, total) = parse_header(buf)?;
    if buf.len() < total {
        return Err(WireError::Truncated);
    }
    let (body, sum) = buf[..total].split_at(total - CHECKSUM_LEN);
    let carried = u64::from_le_bytes(sum.try_into().unwrap());
    let computed = fnv1a_words(body);
    if computed != carried {
        return Err(WireError::Checksum {
            expected: computed,
            got: carried,
        });
    }
    Ok((parse_payload(frame_type, &body[HEADER_LEN..])?, total))
}

/// Size of a [`FrameReader`]'s buffer: the most one `read` returns. A
/// saturated socket then delivers hundreds of small frames (or thirty
/// 1000-byte ones) per system call, and a connection's buffers stay small
/// beside its socket's own. A constant, not a knob: no caller needs another
/// value, and the reader grows past it for the one frame that does.
pub const READ_BUF_LEN: usize = 32 * 1024;

/// The one way a stream is read: a fixed buffer refilled by a single
/// `read` and drained by [`decode`], so the system-call and allocation
/// cost is paid per *read*, not per frame.
///
/// The buffer holds [`READ_BUF_LEN`] bytes; it grows only to hold a single
/// larger frame (never past the [`MAX_PAYLOAD_LEN`] envelope, which the
/// header check enforces before any growth) and shrinks back once that
/// frame is consumed.
pub struct FrameReader<R> {
    inner: R,
    buf: Vec<u8>,
    /// `buf[start..end]` holds received, not yet decoded bytes.
    start: usize,
    end: usize,
}

impl<R: Read> FrameReader<R> {
    /// Buffer reads from `inner`.
    pub fn new(inner: R) -> FrameReader<R> {
        FrameReader {
            inner,
            buf: vec![0; READ_BUF_LEN],
            start: 0,
            end: 0,
        }
    }

    /// The underlying stream.
    pub fn get_ref(&self) -> &R {
        &self.inner
    }

    /// Bytes the buffer can currently hold.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Decode the next frame already in the buffer, with its full on-wire
    /// size (envelope + payload + checksum — exact, measured at the
    /// decoder). `Ok(None)` means no whole frame is buffered — call
    /// [`fill`](FrameReader::fill). Never touches the stream.
    pub fn next_buffered(&mut self) -> Result<Option<(Frame, usize)>, WireError> {
        match decode(&self.buf[self.start..self.end]) {
            Ok((frame, used)) => {
                self.start += used;
                Ok(Some((frame, used)))
            }
            Err(WireError::Truncated) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Whether the next buffered frame is a data frame (`insert`, `adjust`
    /// or `stable`), judged from its header alone: how a reader that takes
    /// no more data right now still takes a control frame behind it.
    pub fn data_next(&self) -> bool {
        let next = parse_header(&self.buf[self.start..self.end]);
        matches!(next, Ok((tag::INSERT..=tag::STABLE, _)))
    }

    /// Issue one `read` for as much as the buffer takes. `Ok(0)` is EOF;
    /// a read timeout surfaces as [`WireError::Io`] with the buffered
    /// bytes kept. Call only after [`next_buffered`](FrameReader::next_buffered)
    /// returned `Ok(None)`, so what is left is less than one frame.
    pub fn fill(&mut self) -> Result<usize, WireError> {
        // Move the partial frame to the front, then make sure the whole
        // frame it starts fits (its header has already passed `decode`).
        self.buf.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
        let need = parse_header(&self.buf[..self.end]).map_or(HEADER_LEN, |(_, total)| total);
        if need > self.buf.len() {
            self.buf.resize(need, 0);
        } else if self.buf.len() > READ_BUF_LEN && need <= READ_BUF_LEN {
            self.buf.truncate(READ_BUF_LEN);
            self.buf.shrink_to_fit();
        }
        loop {
            match self.inner.read(&mut self.buf[self.end..]) {
                Ok(n) => {
                    self.end += n;
                    return Ok(n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// The next frame, reading as needed. `Ok(None)` means clean EOF at a
    /// frame boundary; EOF inside a frame is [`WireError::Truncated`].
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        loop {
            if let Some((frame, _size)) = self.next_buffered()? {
                return Ok(Some(frame));
            }
            if self.fill()? == 0 {
                return if self.start == self.end {
                    Ok(None)
                } else {
                    Err(WireError::Truncated)
                };
            }
        }
    }

    /// The next frame that has already arrived: a buffered one, else what
    /// one `read` brings. `Ok(None)` means no whole frame has: the read
    /// found nothing (`WouldBlock` — at once on a non-blocking stream, at
    /// the read timeout on a blocking one) or part of a frame. How a thread
    /// that writes a socket takes its peer's control frames between writes:
    /// on a non-blocking socket with nothing new, one `read` that returns
    /// `EAGAIN`. EOF is an error even at a frame boundary.
    pub fn next_arrived(&mut self) -> Result<Option<Frame>, WireError> {
        if let Some((frame, _size)) = self.next_buffered()? {
            return Ok(Some(frame));
        }
        match self.fill() {
            Ok(0) if self.start == self.end => Err(WireError::Io(io::ErrorKind::UnexpectedEof)),
            Ok(0) => Err(WireError::Truncated),
            Ok(_) => Ok(self.next_buffered()?.map(|(frame, _size)| frame)),
            Err(WireError::Io(io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)) => Ok(None),
            Err(e) => Err(e),
        }
    }
}

/// A sending thread that owns its socket keeps it non-blocking, so that
/// [`next_arrived`](FrameReader::next_arrived) between its writes never
/// waits, and makes it blocking only to wait: for a frame, or for room.
impl FrameReader<TcpStream> {
    /// [`next_arrived`](FrameReader::next_arrived) on the socket made
    /// blocking for the one read: waits for the peer up to the socket's
    /// read timeout (for ever without one).
    pub fn wait_arrived(&mut self) -> Result<Option<Frame>, WireError> {
        if let Some((frame, _size)) = self.next_buffered()? {
            return Ok(Some(frame));
        }
        self.inner.set_nonblocking(false)?;
        let next = self.next_arrived();
        self.inner.set_nonblocking(true)?;
        next
    }

    /// Write all of `bytes` to the non-blocking socket, making it blocking
    /// for the rest once it is full.
    pub fn send(&self, mut bytes: &[u8]) -> io::Result<()> {
        let mut w = &self.inner;
        while !bytes.is_empty() {
            match w.write(bytes) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => bytes = &bytes[n..],
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.inner.set_nonblocking(false)?;
                    let wrote = w.write_all(bytes);
                    self.inner.set_nonblocking(true)?;
                    return wrote;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// Read one frame from a stream, consuming exactly its bytes. `Ok(None)`
/// means clean EOF at a frame boundary; EOF inside a frame is
/// [`WireError::Truncated`]. For a single handshake frame on a stream
/// someone else goes on to read; anything that reads a stream to its end
/// uses a [`FrameReader`].
pub fn read_frame(r: &mut impl Read) -> Result<Option<Frame>, WireError> {
    Ok(read_frame_sized(r)?.map(|(frame, _)| frame))
}

/// Like [`read_frame`], additionally returning the frame's full on-wire
/// size.
pub fn read_frame_sized(r: &mut impl Read) -> Result<Option<(Frame, usize)>, WireError> {
    let mut buf = vec![0u8; HEADER_LEN];
    match read_full(r, &mut buf)? {
        0 => return Ok(None),
        HEADER_LEN => {}
        _ => return Err(WireError::Truncated),
    }
    let (_, total) = parse_header(&buf)?;
    buf.resize(total, 0);
    if read_full(r, &mut buf[HEADER_LEN..])? < total - HEADER_LEN {
        return Err(WireError::Truncated);
    }
    decode(&buf).map(Some)
}

/// Read until `buf` is full or the stream ends; returns the bytes read.
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> Result<usize, WireError> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(got)
}

/// Encode and write one frame to a stream.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> std::io::Result<()> {
    w.write_all(&encode(frame))
}

/// Decode every frame in `buf`; errors if any frame is malformed or the
/// buffer ends mid-frame.
pub fn decode_all(buf: &[u8]) -> Result<Vec<Frame>, WireError> {
    let mut frames = Vec::new();
    let mut off = 0;
    while off < buf.len() {
        let (frame, used) = decode(&buf[off..])?;
        frames.push(frame);
        off += used;
    }
    Ok(frames)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Hello {
                protocol: PROTOCOL_VERSION,
                input: 2,
            },
            Frame::Welcome {
                input: 2,
                resume_seq: 17,
                resume_stable: Time(40),
                credits: 256,
            },
            Frame::Data {
                seq: 0,
                at: VTime(120),
                element: Element::insert(Value::synthetic(7, 1000), 10, 20),
            },
            Frame::Data {
                seq: 1,
                at: VTime(160),
                element: Element::adjust(Value::bare(3), Time(10), Time(20), Time(15)),
            },
            Frame::Data {
                seq: 2,
                at: VTime(200),
                element: Element::stable(Time::INFINITY),
            },
            Frame::Data {
                seq: 3,
                at: VTime(210),
                element: Element::insert(Value::bare(-4), Time::MIN, Time::INFINITY),
            },
            Frame::Credit { n: 32 },
            Frame::Ack {
                seq: 2,
                stable: Time(40),
            },
            Frame::Bye,
            Frame::Subscribe {
                protocol: PROTOCOL_VERSION,
                subscriber: 17,
                filter: 2,
                resume_from: 4096,
                credits: 128,
            },
        ]
    }

    #[test]
    fn every_frame_round_trips() {
        for f in sample_frames() {
            let bytes = encode(&f);
            let (back, used) = decode(&bytes).unwrap_or_else(|e| panic!("{f:?}: {e}"));
            assert_eq!(back, f);
            assert_eq!(used, bytes.len(), "whole frame consumed: {f:?}");
        }
    }

    #[test]
    fn frames_round_trip_concatenated() {
        let frames = sample_frames();
        let mut buf = Vec::new();
        for f in &frames {
            encode_into(f, &mut buf);
        }
        let mut off = 0;
        let mut back = Vec::new();
        while off < buf.len() {
            let (f, used) = decode(&buf[off..]).expect("stream decodes");
            back.push(f);
            off += used;
        }
        assert_eq!(back, frames);
    }

    #[test]
    fn frames_round_trip_through_a_stream() {
        let frames = sample_frames();
        let mut buf = Vec::new();
        for f in &frames {
            write_frame(&mut buf, f).unwrap();
        }
        let mut r = &buf[..];
        let mut back = Vec::new();
        while let Some(f) = read_frame(&mut r).expect("stream decodes") {
            back.push(f);
        }
        assert_eq!(back, frames);
    }

    #[test]
    fn sized_reads_tile_the_stream_exactly() {
        let frames = sample_frames();
        let mut buf = Vec::new();
        for f in &frames {
            write_frame(&mut buf, f).unwrap();
        }
        let mut r = &buf[..];
        let mut total = 0usize;
        while let Some((f, n)) = read_frame_sized(&mut r).expect("stream decodes") {
            assert_eq!(n, encode(&f).len(), "size matches the encoding: {f:?}");
            total += n;
        }
        assert_eq!(total, buf.len(), "every wire byte attributed to a frame");
    }

    #[test]
    fn infinities_survive_the_wire() {
        let f = Frame::Data {
            seq: 9,
            at: VTime(1),
            element: Element::<Value>::stable(Time::INFINITY),
        };
        let (back, _) = decode(&encode(&f)).unwrap();
        match back {
            Frame::Data { element, .. } => assert_eq!(element, Element::stable(Time::INFINITY)),
            other => panic!("wrong frame: {other:?}"),
        }
        let w = Frame::Welcome {
            input: 0,
            resume_seq: 0,
            resume_stable: Time::MIN,
            credits: 1,
        };
        let (back, _) = decode(&encode(&w)).unwrap();
        assert_eq!(back, w);
    }

    #[test]
    fn checksum_is_the_shared_word_fold() {
        // The trailing 8 bytes must equal the core crate's word-folded
        // FNV-1a over everything before them — the function LMCK files
        // carry, pinned by the core crate's vectors. A 1 000-byte payload
        // spans whole words and a tail, so both halves of the fold count.
        for frame in [
            Frame::Bye,
            Frame::Data {
                seq: 0,
                at: VTime(120),
                element: Element::insert(Value::synthetic(7, 1000), 10, 20),
            },
        ] {
            let bytes = encode(&frame);
            let body = &bytes[..bytes.len() - CHECKSUM_LEN];
            let carried =
                u64::from_le_bytes(bytes[bytes.len() - CHECKSUM_LEN..].try_into().unwrap());
            assert_eq!(carried, lmerge_core::hash::fnv1a_words(body), "{frame:?}");
        }
    }

    #[test]
    fn a_version_1_frame_is_refused_at_the_envelope() {
        // What a protocol-1 peer sends: version 1, the byte-wise sum. It
        // is refused before its checksum is looked at.
        let mut bytes = encode(&Frame::Bye);
        bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
        let n = bytes.len() - CHECKSUM_LEN;
        let v1_sum = lmerge_core::hash::fnv1a(&bytes[..n]);
        bytes[n..].copy_from_slice(&v1_sum.to_le_bytes());
        assert_eq!(decode(&bytes).unwrap_err(), WireError::BadVersion(1));
    }

    #[test]
    fn empty_buffer_is_truncated_not_a_panic() {
        assert_eq!(decode(&[]).unwrap_err(), WireError::Truncated);
        assert_eq!(decode(&[0x47]).unwrap_err(), WireError::Truncated);
    }
}
