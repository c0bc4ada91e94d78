//! The replayer: stream a pre-timed feed to an ingest server.
//!
//! One call to [`replay`] is one TCP session: handshake, stream the feed
//! honouring credits, finish with `Bye`. The server's `Welcome` tells a
//! rejoining client where to resume (`feed[resume_seq..]`), so driving a
//! crash-recovery scenario is just calling `replay` again after a
//! connection died — by choice ([`ReplayConfig::kill_after`]) or by a
//! proxy-injected reset. A background reader thread consumes `Credit`
//! grants (waking the sender) and `Ack` frames (tracking the last stable
//! point the merge durably consumed).

use crate::wire::{self, Frame, FrameReader, WireError, PROTOCOL_VERSION};
use lmerge_engine::TimedElement;
use lmerge_temporal::{Time, Value};
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
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

/// Credit/ack state shared with the session's reader thread.
struct ReaderState {
    credits: Mutex<u64>,
    granted: Condvar,
    gone: AtomicBool,
    acked_stable: AtomicI64,
    /// The server echoed our `Bye`: the close is durably acknowledged.
    bye_acked: AtomicBool,
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
    let mut stream = TcpStream::connect(addr)?;
    let _ = stream.set_nodelay(true);
    wire::write_frame(
        &mut stream,
        &Frame::Hello {
            protocol: PROTOCOL_VERSION,
            input: config.input,
        },
    )?;
    let mut reader = FrameReader::new(stream.try_clone()?);
    let (resume_seq, credits) = match reader.next_frame()? {
        Some(Frame::Welcome {
            resume_seq,
            credits,
            ..
        }) => (resume_seq, credits),
        Some(_) => return Err(WireError::Protocol("expected welcome")),
        None => return Err(WireError::Protocol("connection closed during handshake")),
    };

    let state = Arc::new(ReaderState {
        credits: Mutex::new(credits as u64),
        granted: Condvar::new(),
        gone: AtomicBool::new(false),
        acked_stable: AtomicI64::new(Time::MIN.0),
        bye_acked: AtomicBool::new(false),
    });
    let reader = {
        let state = Arc::clone(&state);
        thread::spawn(move || reader_loop(reader, state))
    };

    let mut sent = 0u64;
    let streamed = send_feed(&mut stream, &state, feed, resume_seq, config, &mut sent);
    // Half-close after a streamed `Bye`: the server reads it, echoes it as
    // an ack, and drops the session, which closes its end and lets our
    // reader thread see EOF. A written-but-unacked `Bye` is NOT a clean
    // close — a transport fault may have eaten it after our write
    // succeeded — so the session reports unclean and the caller resumes
    // (from `resume_seq == feed.len()`, i.e. it just re-sends the `Bye`).
    // Anything else (kill point, lost connection) severs both ways.
    let _ = stream.shutdown(if streamed {
        Shutdown::Write
    } else {
        Shutdown::Both
    });
    let _ = reader.join();
    Ok(ReplayOutcome {
        sent,
        resumed_from: resume_seq,
        clean: streamed && state.bye_acked.load(Ordering::Acquire),
        acked_stable: Time(state.acked_stable.load(Ordering::Acquire)),
    })
}

/// Stream `feed[resume_seq..]` and the closing `Bye`, counting data frames
/// into `sent`. Frames are encoded into one buffer and leave in as few
/// `write`s as the protocol allows: the buffer is flushed when it reaches
/// [`wire::READ_BUF_LEN`], and before every wait — for a credit, for a
/// pace interval, for the `Bye` echo — so no frame sits in user space while
/// this thread sleeps. Returns whether the `Bye` was written; `false` means
/// the kill point was reached or the connection died (resumable).
fn send_feed(
    stream: &mut TcpStream,
    state: &ReaderState,
    feed: &[TimedElement<Value>],
    resume_seq: u64,
    config: &ReplayConfig,
    sent: &mut u64,
) -> bool {
    let mut out = Vec::with_capacity(wire::READ_BUF_LEN);
    let mut flush = |out: &mut Vec<u8>| {
        let wrote = stream.write_all(out);
        out.clear();
        wrote.is_ok()
    };
    for (i, te) in feed.iter().enumerate().skip(resume_seq as usize) {
        // Out of credits: what is queued goes out before waiting for more.
        let credited = try_take_credit(state) || (flush(&mut out) && take_credit(state));
        if !credited {
            return false;
        }
        let frame = Frame::Data {
            seq: i as u64,
            at: te.at,
            element: te.element.clone(),
        };
        wire::encode_into(&frame, &mut out);
        *sent += 1;
        let kill = config.kill_after == Some(*sent);
        if (kill || config.pace_us > 0 || out.len() >= wire::READ_BUF_LEN) && !flush(&mut out) {
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
    flush(&mut out)
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

/// Take a credit if one is in hand.
fn try_take_credit(state: &ReaderState) -> bool {
    let mut credits = state.credits.lock().unwrap();
    if *credits == 0 {
        return false;
    }
    *credits -= 1;
    true
}

/// Wait for a credit and take it; `false` once the server is gone.
fn take_credit(state: &ReaderState) -> bool {
    let mut credits = state.credits.lock().unwrap();
    loop {
        if *credits > 0 {
            *credits -= 1;
            return true;
        }
        if state.gone.load(Ordering::Relaxed) {
            return false;
        }
        let (guard, _timeout) = state
            .granted
            .wait_timeout(credits, Duration::from_millis(100))
            .unwrap();
        credits = guard;
    }
}

fn reader_loop(mut reader: FrameReader<TcpStream>, state: Arc<ReaderState>) {
    loop {
        match reader.next_frame() {
            Ok(Some(Frame::Credit { n })) => {
                *state.credits.lock().unwrap() += n as u64;
                state.granted.notify_all();
            }
            Ok(Some(Frame::Ack { stable, .. })) => {
                state.acked_stable.store(stable.0, Ordering::Release);
            }
            Ok(Some(Frame::Bye)) => {
                state.bye_acked.store(true, Ordering::Release);
                break;
            }
            // EOF, an unexpected frame, or any transport error ends the
            // session from our side too.
            Ok(Some(_)) | Ok(None) | Err(_) => break,
        }
    }
    state.gone.store(true, Ordering::Relaxed);
    state.granted.notify_all();
}
