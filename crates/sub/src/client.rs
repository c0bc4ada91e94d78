//! The subscriber client: connect, `Subscribe`, consume the fanned-out
//! stream under the credit protocol, and stitch across reconnects.
//!
//! The client is the receiving mirror of the ingest replayer: it grants
//! credits as it consumes, acks its durable cursor at stable points (the
//! server pins retention and checkpoints the cursor), deduplicates any
//! resume overlap by sequence, and treats a mid-stream `Welcome` as a
//! demotion notice — the server jumped it to the compaction horizon.
//! [`subscribe_until_finished`] reconnects with `resume_from` after
//! unclean drops until the close handshake lands, which is what gives a
//! crashing subscriber an exactly-once view of the merged output.

use lmerge_net::wire::{self, Frame, FrameReader, PROTOCOL_VERSION};
use lmerge_net::WireError;
use lmerge_temporal::{Element, Time, VTime, Value};
use std::net::TcpStream;

/// One subscription attempt's parameters.
#[derive(Clone, Debug)]
pub struct SubscribeConfig {
    /// Stable subscriber identity (the durable-cursor key).
    pub subscriber: u64,
    /// Filter class id (an index into the server's [`SubConfig`]
    /// filters; 0 is conventionally the whole stream).
    ///
    /// [`SubConfig`]: crate::SubConfig
    pub filter: u32,
    /// First output sequence wanted (0 = from the start / the horizon).
    pub resume_from: u64,
    /// Initial credit grant; more is granted as frames are consumed.
    pub credits: u32,
    /// Simulate a crash: drop the connection (no `Bye`) after receiving
    /// this many frames.
    pub kill_after: Option<u64>,
}

impl SubscribeConfig {
    /// Defaults: class 0, from the start, a 256-frame credit window.
    pub fn new(subscriber: u64) -> SubscribeConfig {
        SubscribeConfig {
            subscriber,
            filter: 0,
            resume_from: 0,
            credits: 256,
            kill_after: None,
        }
    }

    /// Select a filter class.
    #[must_use]
    pub fn with_filter(mut self, class: u32) -> SubscribeConfig {
        self.filter = class;
        self
    }

    /// Resume from a known cursor.
    #[must_use]
    pub fn with_resume_from(mut self, seq: u64) -> SubscribeConfig {
        self.resume_from = seq;
        self
    }

    /// Shrink or grow the credit window.
    #[must_use]
    pub fn with_credits(mut self, credits: u32) -> SubscribeConfig {
        self.credits = credits.max(1);
        self
    }

    /// Crash after `n` received frames.
    #[must_use]
    pub fn with_kill_after(mut self, n: u64) -> SubscribeConfig {
        self.kill_after = Some(n);
        self
    }
}

/// What one subscription (or a stitched sequence of attempts) received.
#[derive(Debug)]
pub struct SubOutcome {
    /// Accepted frames in order: `(seq, at, element)`.
    pub frames: Vec<(u64, VTime, Element<Value>)>,
    /// The accepted frames' canonical wire bytes, concatenated — the
    /// byte-identity artifact differential tests compare.
    pub bytes: Vec<u8>,
    /// `resume_seq` from the first `Welcome` (the server may have clamped
    /// the request to the retained window).
    pub resumed_from: u64,
    /// `resume_stable` from the first `Welcome` (catch-up point when the
    /// cursor was clamped).
    pub resume_stable: Time,
    /// Frames accepted (duplicates from resume overlap excluded).
    pub received: u64,
    /// Mid-stream demotions (server jumped this session to the horizon).
    pub demotions: u32,
    /// Connection attempts used (1 unless stitched).
    pub attempts: u32,
    /// The close handshake completed.
    pub clean: bool,
    /// The server reported end-of-stream (its `Bye` arrived).
    pub finished: bool,
}

/// Subscribe once and consume until end-of-stream, a kill, or an error.
///
/// An unclean drop (server restart, proxy fault, `kill_after`) returns
/// `Ok` with `clean: false` — resuming is the caller's policy (see
/// [`subscribe_until_finished`]); only handshake-level failures are
/// `Err`.
pub fn subscribe(addr: &str, config: &SubscribeConfig) -> Result<SubOutcome, WireError> {
    let mut stream = TcpStream::connect(addr).map_err(|e| WireError::Io(e.kind()))?;
    let _ = stream.set_nodelay(true);
    // Reads go through the shared frame reader: the server coalesces each
    // chunk into a few large writes, and draining them frame-by-frame with
    // raw reads would cost thousands of syscalls per subscriber. Writes
    // (acks, credit grants, the Bye echo) use the other half.
    let mut reader = FrameReader::new(stream.try_clone().map_err(|e| WireError::Io(e.kind()))?);
    wire::write_frame(
        &mut stream,
        &Frame::Subscribe {
            protocol: PROTOCOL_VERSION,
            subscriber: config.subscriber,
            filter: config.filter,
            resume_from: config.resume_from,
            credits: config.credits,
        },
    )?;
    let (resumed_from, resume_stable) = match reader.next_frame()? {
        Some(Frame::Welcome {
            resume_seq,
            resume_stable,
            ..
        }) => (resume_seq, resume_stable),
        Some(_) => return Err(WireError::Protocol("expected Welcome after Subscribe")),
        None => return Err(WireError::Protocol("server closed during handshake")),
    };

    let mut outcome = SubOutcome {
        frames: Vec::new(),
        bytes: Vec::new(),
        resumed_from,
        resume_stable,
        received: 0,
        demotions: 0,
        attempts: 1,
        clean: false,
        finished: false,
    };
    // A server restored from a checkpoint older than this cursor clamps it
    // down to its tail and re-emits the same frames (the merge is
    // deterministic); what this subscriber already holds is overlap.
    let mut expected = resumed_from.max(config.resume_from);
    let grant_batch = (config.credits / 2).max(1) as u64;
    let mut since_grant: u64 = 0;
    loop {
        match reader.next_frame() {
            Ok(Some(Frame::Data { seq, at, element })) => {
                if seq < expected {
                    // Resume overlap duplicate: exactly-once by dropping.
                    continue;
                }
                // A forward jump is not loss: sequences are the *global*
                // stream's, so a filtered class legitimately skips the
                // sequences its filter rejected (TCP ordering rules out
                // reordering; the server never omits an admitted frame).
                expected = seq + 1;
                outcome.received += 1;
                wire::encode_into(
                    &Frame::Data {
                        seq,
                        at,
                        element: element.clone(),
                    },
                    &mut outcome.bytes,
                );
                if let Element::Stable(t) = element {
                    // Durable-cursor ack at stable points (mirror of the
                    // ingest server's acks).
                    let _ = wire::write_frame(&mut stream, &Frame::Ack { seq, stable: t });
                }
                outcome.frames.push((seq, at, element));
                since_grant += 1;
                if since_grant >= grant_batch {
                    let n = since_grant as u32;
                    since_grant = 0;
                    if wire::write_frame(&mut stream, &Frame::Credit { n }).is_err() {
                        break;
                    }
                }
                if config.kill_after == Some(outcome.received) {
                    // Simulated crash: vanish without a Bye (shutdown,
                    // not just drop — the buffered reader's clone would
                    // otherwise keep the socket alive until return).
                    let _ = stream.shutdown(std::net::Shutdown::Both);
                    return Ok(outcome);
                }
            }
            Ok(Some(Frame::Welcome { resume_seq, .. })) => {
                // Demotion: this session fell off the retained window and
                // the server jumped it to the compaction horizon.
                outcome.demotions += 1;
                expected = expected.max(resume_seq);
            }
            Ok(Some(Frame::Bye)) => {
                outcome.finished = true;
                // Echo the close so the server can record a clean
                // session. The stream itself is complete once the Bye
                // arrived; a failed echo only means the server's echo
                // deadline expired first under load and it severed — no
                // data was at stake, so the outcome stays clean.
                let _ = wire::write_frame(&mut stream, &Frame::Bye);
                outcome.clean = true;
                break;
            }
            Ok(Some(_)) | Ok(None) | Err(_) => break,
        }
    }
    Ok(outcome)
}

/// Subscribe, reconnecting with `resume_from` after every unclean drop,
/// until the stream finishes cleanly (or `max_attempts` is exhausted —
/// then the stitched partial outcome is returned with `clean: false`).
/// The stitched `frames`/`bytes` are the exactly-once view: each retry
/// resumes at exactly the next unseen sequence.
pub fn subscribe_until_finished(
    addr: &str,
    config: &SubscribeConfig,
    max_attempts: u32,
) -> Result<SubOutcome, WireError> {
    let mut stitched: Option<SubOutcome> = None;
    let mut attempt_config = config.clone();
    for attempt in 0..max_attempts.max(1) {
        // Only the first attempt simulates the crash.
        if attempt > 0 {
            attempt_config.kill_after = None;
        }
        let outcome = match subscribe(addr, &attempt_config) {
            Ok(o) => o,
            Err(e) => {
                // Connection refused mid-restart: retry after a beat.
                if attempt + 1 == max_attempts.max(1) {
                    return Err(e);
                }
                std::thread::sleep(std::time::Duration::from_millis(50));
                continue;
            }
        };
        attempt_config.resume_from = outcome
            .frames
            .last()
            .map(|(seq, _, _)| seq + 1)
            .unwrap_or(attempt_config.resume_from.max(outcome.resumed_from));
        let total = match stitched.as_mut() {
            None => {
                stitched = Some(outcome);
                stitched.as_mut().unwrap()
            }
            Some(total) => {
                total.attempts += 1;
                total.received += outcome.received;
                total.demotions += outcome.demotions;
                total.bytes.extend_from_slice(&outcome.bytes);
                total.frames.extend(outcome.frames);
                total.clean = outcome.clean;
                total.finished = outcome.finished;
                total
            }
        };
        if total.finished && total.clean {
            break;
        }
    }
    Ok(stitched.expect("at least one attempt"))
}
