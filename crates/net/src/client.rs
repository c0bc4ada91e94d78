//! The replayer: stream a pre-timed feed to an ingest server.
//!
//! One call to [`replay`] is one TCP session: handshake, stream the feed
//! honouring credits, finish with `Bye`. The server's `Welcome` tells a
//! rejoining client where to resume (`feed[resume_seq..]`), so driving a
//! crash-recovery scenario is just calling `replay` again after a
//! connection died — by choice ([`ReplayConfig::kill_after`]) or by a
//! proxy-injected reset. The session is the calling thread alone: it
//! takes the server's `Credit` grants and `Ack` frames (the last stable
//! point the merge durably consumed) between the frames it writes, at each
//! flush, and blocks on the socket only out of credits or waiting for the
//! `Bye` echo.

use crate::wire::{self, Frame, FrameReader, WireError, PROTOCOL_VERSION};
use lmerge_engine::TimedElement;
use lmerge_temporal::{Time, Value};
use std::net::{Shutdown, TcpStream};
use std::thread;
use std::time::Duration;

/// One replay session's parameters.
#[derive(Clone, Copy, Debug)]
pub struct ReplayConfig {
    /// The input id to claim.
    pub input: u32,
    /// Real-time pacing between frames, in microseconds (0 = flat out).
    /// Pacing shapes socket timing only; virtual arrival times travel in
    /// the frames, so the merge result is pace-independent.
    pub pace_us: u64,
    /// Sever the connection (no `Bye`) after sending this many data
    /// frames — simulates a replica crash for resume testing.
    pub kill_after: Option<u64>,
}

impl ReplayConfig {
    /// Stream `input` flat out to completion.
    pub fn new(input: u32) -> ReplayConfig {
        ReplayConfig {
            input,
            pace_us: 0,
            kill_after: None,
        }
    }

    /// Sleep `us` microseconds between frames.
    #[must_use]
    pub fn with_pace_us(mut self, us: u64) -> ReplayConfig {
        self.pace_us = us;
        self
    }

    /// Crash (sever without `Bye`) after `n` data frames.
    #[must_use]
    pub fn with_kill_after(mut self, n: u64) -> ReplayConfig {
        self.kill_after = Some(n);
        self
    }
}

/// What one replay session accomplished.
#[derive(Clone, Copy, Debug)]
pub struct ReplayOutcome {
    /// Data frames sent this session.
    pub sent: u64,
    /// The resume offset the server's `Welcome` carried (0 on a first
    /// session; the crash point after a rejoin).
    pub resumed_from: u64,
    /// Whether the session ended with a server-acknowledged `Bye`
    /// (false after a kill, a connection loss, or a `Bye` the transport
    /// ate before delivery — call [`replay`] again to resume).
    pub clean: bool,
    /// Highest stable point the server acked as durably consumed.
    pub acked_stable: Time,
}

/// One session's socket and what the server has said on it, taken
/// between writes.
struct Link {
    reader: FrameReader<TcpStream>,
    credits: u64,
    /// Highest stable point the server acked as durably consumed.
    acked_stable: Time,
    /// `Some(echoed)` once the server has closed: `true` for the echo of
    /// our `Bye`, `false` for EOF, an error, or a frame that makes no sense
    /// here.
    closed: Option<bool>,
}

impl Link {
    /// Take the frames that have arrived; with `wait`, block for the first.
    fn take(&mut self, wait: bool) {
        let mut next = if wait {
            self.reader.wait_arrived()
        } else {
            self.reader.next_arrived()
        };
        loop {
            match next {
                Ok(None) => return,
                Ok(Some(Frame::Credit { n })) => self.credits += u64::from(n),
                Ok(Some(Frame::Ack { stable, .. })) => self.acked_stable = stable,
                Ok(Some(Frame::Bye)) => {
                    self.closed = Some(true);
                    return;
                }
                // EOF, an unexpected frame, or any transport error ends the
                // session from our side too.
                Ok(Some(_)) | Err(_) => {
                    self.closed = Some(false);
                    return;
                }
            }
            next = self.reader.next_arrived();
        }
    }

    /// Write the queued frames and clear them, then take what has arrived
    /// meanwhile without waiting. `false` if the write failed.
    fn flush(&mut self, out: &mut Vec<u8>) -> bool {
        let wrote = self.reader.send(out).is_ok();
        out.clear();
        self.take(false);
        wrote
    }
}

/// Run one replay session against `addr`. Returns when the feed is fully
/// streamed (`clean == true`), the configured kill point was reached, or
/// the connection died. Transport-level failures surface as `Err`; a
/// severed-but-resumable session is `Ok` with `clean == false`.
pub fn replay(
    addr: &str,
    feed: &[TimedElement<Value>],
    config: &ReplayConfig,
) -> Result<ReplayOutcome, WireError> {
    let stream = TcpStream::connect(addr)?;
    let _ = stream.set_nodelay(true);
    let mut reader = FrameReader::new(stream);
    wire::write_frame(
        &mut reader.get_ref(),
        &Frame::Hello {
            protocol: PROTOCOL_VERSION,
            input: config.input,
        },
    )?;
    let (resume_seq, credits) = match reader.next_frame()? {
        Some(Frame::Welcome {
            resume_seq,
            credits,
            ..
        }) => (resume_seq, credits),
        Some(_) => return Err(WireError::Protocol("expected welcome")),
        None => return Err(WireError::Protocol("connection closed during handshake")),
    };
    reader.get_ref().set_nonblocking(true)?;

    let mut link = Link {
        reader,
        credits: u64::from(credits),
        acked_stable: Time::MIN,
        closed: None,
    };
    let mut sent = 0u64;
    let streamed = send_feed(&mut link, feed, resume_seq, config, &mut sent);
    // Half-close after a streamed `Bye` and wait for the server to echo it
    // as an ack and drop the session. A written-but-unacked `Bye` is NOT a
    // clean close — a transport fault may have eaten it after our write
    // succeeded — so the session reports unclean and the caller resumes
    // (from `resume_seq == feed.len()`, i.e. it just re-sends the `Bye`).
    // Anything else (kill point, lost connection) severs both ways.
    if streamed {
        let _ = link.reader.get_ref().shutdown(Shutdown::Write);
        while link.closed.is_none() {
            link.take(true);
        }
    } else {
        let _ = link.reader.get_ref().shutdown(Shutdown::Both);
    }
    Ok(ReplayOutcome {
        sent,
        resumed_from: resume_seq,
        clean: streamed && link.closed == Some(true),
        acked_stable: link.acked_stable,
    })
}

/// Stream `feed[resume_seq..]` and the closing `Bye`, counting data frames
/// into `sent`. Frames are encoded into one buffer and leave in as few
/// `write`s as the protocol allows: the buffer is flushed when it reaches
/// [`wire::READ_BUF_LEN`], and before every wait — for a credit, for a
/// pace interval, for the `Bye` echo — so no frame sits in user space while
/// this thread sleeps. Each flush is followed by a look at what the server
/// has sent meanwhile, without waiting; the socket is waited on only out
/// of credits. Returns whether the `Bye` was written; `false` means the
/// kill point was reached or the connection died (resumable).
fn send_feed(
    link: &mut Link,
    feed: &[TimedElement<Value>],
    resume_seq: u64,
    config: &ReplayConfig,
    sent: &mut u64,
) -> bool {
    let mut out = Vec::with_capacity(wire::READ_BUF_LEN);
    for (i, te) in feed.iter().enumerate().skip(resume_seq as usize) {
        // Out of credits: what is queued goes out before waiting for more.
        if link.credits == 0 && !link.flush(&mut out) {
            return false;
        }
        while link.credits == 0 && link.closed.is_none() {
            link.take(true);
        }
        if link.closed.is_some() {
            return false;
        }
        link.credits -= 1;
        let frame = Frame::Data {
            seq: i as u64,
            at: te.at,
            element: te.element.clone(),
        };
        wire::encode_into(&frame, &mut out);
        *sent += 1;
        let kill = config.kill_after == Some(*sent);
        if (kill || config.pace_us > 0 || out.len() >= wire::READ_BUF_LEN) && !link.flush(&mut out)
        {
            return false;
        }
        if kill {
            return false;
        }
        if config.pace_us > 0 {
            thread::sleep(Duration::from_micros(config.pace_us));
        }
    }
    wire::encode_into(&Frame::Bye, &mut out);
    link.flush(&mut out)
}

/// Replay to completion, reconnecting after crashes or injected resets.
/// `pauses` real time briefly between attempts so the server can recycle
/// the session. Errors only if `max_attempts` sessions all fail to
/// finish the feed.
pub fn replay_until_clean(
    addr: &str,
    feed: &[TimedElement<Value>],
    config: &ReplayConfig,
    max_attempts: usize,
) -> Result<ReplayOutcome, WireError> {
    let mut last = WireError::Protocol("no attempts made");
    for _ in 0..max_attempts {
        match replay(addr, feed, config) {
            Ok(outcome) if outcome.clean => return Ok(outcome),
            Ok(_) => {} // severed: reconnect and resume
            Err(e) => last = e,
        }
        thread::sleep(Duration::from_millis(20));
    }
    Err(last)
}
