//! `FrameReader` is the one reader every plane shares, so its contract is
//! pinned here independently of any socket: however the byte stream is cut
//! into `read`s, the frames (and their on-wire sizes) that come out are
//! exactly what a `wire::decode` loop over the whole byte string yields —
//! and a run of frames that arrives in one chunk costs one `read`, as does
//! looking for frames on a socket that has none.

use lmerge_net::wire::{
    self, Frame, FrameReader, WireError, CHECKSUM_LEN, HEADER_LEN, MAX_PAYLOAD_LEN, READ_BUF_LEN,
};
use lmerge_properties::shrink::{describe, minimize, Knob};
use lmerge_temporal::{Element, Time, VTime, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Read;

/// A `Read` that hands `data` out in scripted chunk sizes (cycled; the
/// caller's buffer caps each one) and counts the calls it served.
struct Scripted<'a> {
    data: &'a [u8],
    chunks: Vec<usize>,
    reads: usize,
}

impl<'a> Scripted<'a> {
    fn new(data: &'a [u8], chunks: Vec<usize>) -> Scripted<'a> {
        assert!(chunks.iter().all(|&c| c > 0), "a 0-byte read is EOF");
        Scripted {
            data,
            chunks,
            reads: 0,
        }
    }
}

impl Read for Scripted<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.chunks[self.reads % self.chunks.len()]
            .min(buf.len())
            .min(self.data.len());
        self.reads += 1;
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

/// A seeded mix of everything a session sees: 32 B and 1000 B inserts,
/// stables, acks, credits, and a `Bye` somewhere in the middle.
fn mixed_frames(seed: u64, n: usize) -> Vec<Frame> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n as u64)
        .map(|seq| match rng.random_range(0..8u32) {
            0..=2 => Frame::Data {
                seq,
                at: VTime(seq * 10),
                element: Element::insert(
                    Value::synthetic(seq as i32, 32),
                    seq as i64,
                    seq as i64 + 5,
                ),
            },
            3 => Frame::Data {
                seq,
                at: VTime(seq * 10),
                element: Element::insert(
                    Value::synthetic(seq as i32, 1000),
                    seq as i64,
                    seq as i64 + 5,
                ),
            },
            4 => Frame::Data {
                seq,
                at: VTime(seq * 10),
                element: Element::stable(Time(seq as i64)),
            },
            5 => Frame::Ack {
                seq,
                stable: Time(seq as i64),
            },
            6 => Frame::Credit { n: seq as u32 },
            _ => Frame::Bye,
        })
        .collect()
}

fn encode_all(frames: &[Frame]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for f in frames {
        wire::encode_into(f, &mut bytes);
    }
    bytes
}

/// The reference: decode the whole byte string front to back.
fn decode_all(mut bytes: &[u8]) -> (Vec<(Frame, usize)>, Option<WireError>) {
    let mut out = Vec::new();
    while !bytes.is_empty() {
        match wire::decode(bytes) {
            Ok((frame, used)) => {
                out.push((frame, used));
                bytes = &bytes[used..];
            }
            Err(e) => return (out, Some(e)),
        }
    }
    (out, None)
}

/// Drain a reader the way the ingest session does — every buffered frame,
/// then one `fill` — to whatever ends the stream.
fn read_all<R: Read>(reader: &mut FrameReader<R>) -> (Vec<(Frame, usize)>, Option<WireError>) {
    let mut out = Vec::new();
    loop {
        match reader.next_buffered() {
            Ok(Some(got)) => out.push(got),
            Ok(None) => match reader.fill() {
                Ok(0) => return (out, None),
                Ok(_) => {}
                Err(e) => return (out, Some(e)),
            },
            Err(e) => return (out, Some(e)),
        }
    }
}

/// How a case cuts the stream into reads: `mode` 0 is `param`-byte reads,
/// 1 is one read of `param` bytes and then the rest, 2 is random sizes
/// seeded by `param`.
fn chunking(mode: u64, param: u64) -> Vec<usize> {
    match mode {
        0 => vec![param.max(1) as usize],
        1 => vec![param.max(1) as usize, usize::MAX],
        _ => {
            let mut rng = StdRng::seed_from_u64(param);
            (0..64).map(|_| rng.random_range(1..=2500usize)).collect()
        }
    }
}

/// Whether the reader, fed `mixed_frames(seed, frames)` under the given
/// chunking, diverges from the reference — by either driving style.
fn diverges(seed: u64, frames: usize, mode: u64, param: u64) -> bool {
    let bytes = encode_all(&mixed_frames(seed, frames));
    let want = decode_all(&bytes);
    let mut by_refill = FrameReader::new(Scripted::new(&bytes, chunking(mode, param)));
    if read_all(&mut by_refill) != want {
        return true;
    }
    let mut by_frame = FrameReader::new(Scripted::new(&bytes, chunking(mode, param)));
    for (frame, _) in &want.0 {
        if by_frame.next_frame() != Ok(Some(frame.clone())) {
            return true;
        }
    }
    by_frame.next_frame() != Ok(None)
}

fn assert_equivalent(seed: u64, frames: usize, mode: u64, param: u64) {
    if !diverges(seed, frames, mode, param) {
        return;
    }
    let knobs = vec![
        Knob::new("seed", seed, 0),
        Knob::new("frames", frames as u64, 1),
        Knob::new("mode", mode, 0),
        Knob::new("param", param, 1),
    ];
    let (smallest, probes) = minimize(knobs, |ks| {
        diverges(ks[0].value, ks[1].value as usize, ks[2].value, ks[3].value)
    });
    panic!(
        "FrameReader diverged from wire::decode; minimized ({probes} probes) to {}",
        describe(&smallest)
    );
}

#[test]
fn split_equivalence_holds_for_every_chunking() {
    // Byte-at-a-time and random chunk sizes over long mixed streams.
    for seed in 0..40u64 {
        assert_equivalent(seed, 60, 0, 1);
        assert_equivalent(seed, 60, 2, seed ^ 0xC0FFEE);
    }
    // Every fixed split offset of a shorter stream: the first read ends
    // at each byte of each frame in turn.
    for seed in 0..3u64 {
        let len = encode_all(&mixed_frames(seed, 12)).len();
        for offset in 1..len {
            assert_equivalent(seed, 12, 1, offset as u64);
        }
    }
}

#[test]
fn frames_that_arrive_in_one_chunk_cost_one_read() {
    let frames: Vec<Frame> = (0..200u64)
        .map(|seq| Frame::Data {
            seq,
            at: VTime(seq),
            element: Element::insert(Value::synthetic(seq as i32, 32), seq as i64, seq as i64 + 5),
        })
        .collect();
    let bytes = encode_all(&frames);
    assert!(bytes.len() < READ_BUF_LEN, "the run fits one buffer");
    let mut reader = FrameReader::new(Scripted::new(&bytes, vec![usize::MAX]));
    for f in &frames {
        assert_eq!(reader.next_frame().unwrap().as_ref(), Some(f));
    }
    assert_eq!(reader.get_ref().reads, 1, "200 frames, one read");
    assert_eq!(reader.next_frame(), Ok(None));
    assert_eq!(reader.get_ref().reads, 2, "…and one more to learn of EOF");
}

/// A non-blocking socket as a script of reads: `Some(bytes)` arrives,
/// `None` is `WouldBlock`, and past the end is EOF.
struct Arrivals {
    script: std::collections::VecDeque<Option<Vec<u8>>>,
    reads: usize,
}

impl Read for Arrivals {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.reads += 1;
        match self.script.pop_front() {
            Some(Some(bytes)) => {
                buf[..bytes.len()].copy_from_slice(&bytes);
                Ok(bytes.len())
            }
            Some(None) => Err(std::io::ErrorKind::WouldBlock.into()),
            None => Ok(0),
        }
    }
}

#[test]
fn next_arrived_takes_what_has_arrived_one_read_at_a_time() {
    let frames = [Frame::Credit { n: 4 }, Frame::Bye, Frame::Credit { n: 9 }];
    let bytes = encode_all(&frames);
    let cut = bytes.len() - 3;
    let script = [
        None,
        Some(bytes[..cut].to_vec()),
        None,
        Some(bytes[cut..].to_vec()),
    ];
    let mut reader = FrameReader::new(Arrivals {
        script: script.into_iter().collect(),
        reads: 0,
    });
    let mut step = |want: Result<Option<Frame>, WireError>, reads: usize| {
        assert_eq!(reader.next_arrived(), want);
        assert_eq!(reader.get_ref().reads, reads);
    };
    step(Ok(None), 1); // nothing yet: one read, WouldBlock
    step(Ok(Some(frames[0].clone())), 2);
    step(Ok(Some(frames[1].clone())), 2); // buffered: no read
    step(Ok(None), 3); // half a frame buffered, nothing more arrived
    step(Ok(Some(frames[2].clone())), 4);
    step(Err(WireError::Io(std::io::ErrorKind::UnexpectedEof)), 5);

    let mut reader = FrameReader::new(Arrivals {
        script: [Some(bytes[..cut].to_vec())].into_iter().collect(),
        reads: 0,
    });
    assert_eq!(reader.next_arrived(), Ok(Some(frames[0].clone())));
    assert_eq!(reader.next_arrived(), Ok(Some(frames[1].clone())));
    assert_eq!(reader.next_arrived(), Err(WireError::Truncated));
}

#[test]
fn eof_at_a_boundary_is_none_and_inside_a_frame_is_truncated() {
    let bytes = encode_all(&mixed_frames(7, 5));
    let (whole, _) = decode_all(&bytes);
    let mut boundary = 0;
    for (k, (_, size)) in whole.iter().enumerate() {
        // Cut strictly inside frame k: frames 0..k, then Truncated.
        for cut in [boundary + 1, boundary + HEADER_LEN, boundary + size - 1] {
            let mut reader = FrameReader::new(&bytes[..cut]);
            let (got, end) = read_all(&mut reader);
            assert_eq!(got, whole[..k], "cut at {cut}");
            // `read_all` stops at the EOF read; `next_frame` names it.
            assert_eq!(end, None);
            assert_eq!(
                reader.next_frame(),
                Err(WireError::Truncated),
                "cut at {cut}"
            );
        }
        boundary += size;
        let mut reader = FrameReader::new(&bytes[..boundary]);
        assert_eq!(read_all(&mut reader).0, whole[..=k]);
        assert_eq!(reader.next_frame(), Ok(None), "clean EOF after frame {k}");
    }
}

#[test]
fn a_flipped_byte_in_frame_k_yields_the_frames_before_it_then_checksum() {
    let clean = encode_all(&mixed_frames(11, 10));
    let (whole, _) = decode_all(&clean);
    let mut start = 0;
    for (k, (_, size)) in whole.iter().enumerate() {
        // Flip a byte the header check does not look at: the last payload
        // byte, or for an empty payload the first checksum byte.
        let mut bytes = clean.clone();
        bytes[(start + size - CHECKSUM_LEN - 1).max(start + HEADER_LEN)] ^= 0x20;
        for chunks in [vec![1], vec![usize::MAX], vec![97, 3]] {
            let mut reader = FrameReader::new(Scripted::new(&bytes, chunks));
            let (got, end) = read_all(&mut reader);
            assert_eq!(got, whole[..k], "frames before the bad one survive");
            assert!(
                matches!(end, Some(WireError::Checksum { .. })),
                "frame {k}: {end:?}"
            );
        }
        start += size;
    }
}

#[test]
fn an_oversized_length_is_rejected_from_the_header_alone() {
    let mut header = wire::encode(&Frame::Bye);
    header.truncate(HEADER_LEN);
    header[8..12].copy_from_slice(&(MAX_PAYLOAD_LEN + 1).to_le_bytes());
    // Only the header ever arrives; a reader that waited for the body it
    // announces would issue a second read (and a real socket would block).
    let mut reader = FrameReader::new(Scripted::new(&header, vec![usize::MAX]));
    assert_eq!(
        reader.next_frame(),
        Err(WireError::Oversized(MAX_PAYLOAD_LEN + 1))
    );
    assert_eq!(reader.get_ref().reads, 1);
    assert_eq!(reader.capacity(), READ_BUF_LEN, "nothing grew for it");
}

#[test]
fn a_frame_larger_than_the_buffer_round_trips_and_the_buffer_shrinks_back() {
    let big = Frame::Data {
        seq: 0,
        at: VTime(1),
        element: Element::insert(Value::synthetic(1, 3 * READ_BUF_LEN), 0, 9),
    };
    let frames = vec![
        Frame::Credit { n: 1 },
        big.clone(),
        Frame::Ack {
            seq: 0,
            stable: Time(3),
        },
        big,
        Frame::Bye,
    ];
    let bytes = encode_all(&frames);
    for chunks in [vec![usize::MAX], vec![4096], vec![READ_BUF_LEN + 1, 5]] {
        let mut reader = FrameReader::new(Scripted::new(&bytes, chunks));
        assert_eq!(reader.capacity(), READ_BUF_LEN);
        for f in &frames {
            assert_eq!(reader.next_frame().unwrap().as_ref(), Some(f));
        }
        assert_eq!(reader.next_frame(), Ok(None));
        assert_eq!(reader.capacity(), READ_BUF_LEN, "back to the fixed size");
    }
}
