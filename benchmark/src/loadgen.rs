//! The load generator: one sender thread multiplexing every replica
//! session, one receiver thread holding the subscription.
//!
//! The sender owns pre-encoded frames and, for open loops, a due time per
//! frame; it writes whole runs of frames per syscall, honours the server's
//! credit grants, and records when each frame was handed to the kernel.
//! The receiver stamps every read with one clock reading, decodes with the
//! repo's own `wire::decode`, and keeps the raw bytes for the oracle.
//! Nothing here spins: with `nproc` = 2 a busy generator would take the
//! core the server needs and measure itself.

use crate::sut::{self, CpuTimes, ProcStatus};
use crate::workload::{EncodedFeed, SUBSCRIBER_CREDITS};
use lmerge::net::wire::{self, Frame, WireError, PROTOCOL_VERSION};
use lmerge::temporal::Element;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Longest the sender sleeps when it can make no progress.
const IDLE_NAP: Duration = Duration::from_micros(100);

fn io_err(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

/// One replica's session, handshake done, ready to stream.
pub struct ReplicaSession {
    stream: TcpStream,
    credits: u64,
}

/// Connect and complete the `Hello`/`Welcome` handshake for `input`.
pub fn open_replica(addr: &str, input: u32) -> Result<ReplicaSession, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| io_err("connect ingest", e))?;
    stream.set_nodelay(true).map_err(|e| io_err("nodelay", e))?;
    wire::write_frame(
        &mut stream,
        &Frame::Hello {
            protocol: PROTOCOL_VERSION,
            input,
        },
    )
    .map_err(|e| io_err("send hello", e))?;
    match wire::read_frame(&mut stream) {
        Ok(Some(Frame::Welcome {
            resume_seq: 0,
            credits,
            ..
        })) => Ok(ReplicaSession {
            stream,
            credits: credits as u64,
        }),
        Ok(other) => Err(format!(
            "replica {input}: expected a fresh welcome, got {other:?}"
        )),
        Err(e) => Err(io_err("read welcome", e)),
    }
}

/// When each frame is due, in nanoseconds after the sender's start.
/// `None` is a closed loop: a frame is due as soon as a credit allows it.
pub type Schedule = Option<Vec<u64>>;

/// What the sender observed for one replica.
pub struct SentReplica {
    /// Nanoseconds after `start` at which frame `i` was written.
    pub sent_ns: Vec<u64>,
    /// The server echoed our `Bye`.
    pub clean: bool,
}

/// The sender's report.
pub struct Sent {
    pub start: Instant,
    pub replicas: Vec<SentReplica>,
    /// CPU this thread used while sending.
    pub cpu_ns: u64,
}

struct Lane<'a> {
    stream: TcpStream,
    feed: &'a EncodedFeed,
    due_ns: Option<&'a [u64]>,
    credits: u64,
    /// Bytes handed to the kernel so far (may end mid-frame).
    written: usize,
    /// Data frames completely written.
    next: usize,
    sent_ns: Vec<u64>,
    inbuf: Vec<u8>,
    /// The trailing Bye may not be written yet.
    bye_held: bool,
    bye_written: bool,
    bye_echoed: bool,
    /// The session is over (echo seen, or the server hung up after our Bye).
    closed: bool,
}

impl Lane<'_> {
    fn done(&self) -> bool {
        self.closed
    }

    /// Drain whatever the server has sent (credits, acks, the `Bye` echo)
    /// without blocking.
    fn pump_reads(&mut self, scratch: &mut [u8]) -> Result<bool, String> {
        let mut progressed = false;
        let mut eof = false;
        loop {
            match self.stream.read(scratch) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => {
                    self.inbuf.extend_from_slice(&scratch[..n]);
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(io_err("replica read", e)),
            }
        }
        let mut pos = 0;
        loop {
            match wire::decode(&self.inbuf[pos..]) {
                Ok((Frame::Credit { n }, used)) => {
                    self.credits += n as u64;
                    pos += used;
                }
                Ok((Frame::Ack { .. }, used)) => pos += used,
                Ok((Frame::Bye, used)) => {
                    self.bye_echoed = true;
                    self.closed = true;
                    pos += used;
                }
                Ok((other, _)) => return Err(format!("unexpected frame from ingest: {other:?}")),
                Err(WireError::Truncated) => break,
                Err(e) => return Err(io_err("decode from ingest", e)),
            }
        }
        self.inbuf.drain(..pos);
        if eof && !self.closed {
            if !self.bye_written {
                return Err("server closed a replica session mid-stream".to_string());
            }
            // Hung up after our Bye without echoing it: unclean, but the
            // session is over.
            self.closed = true;
            progressed = true;
        }
        Ok(progressed)
    }

    /// How many data frames may be on the wire now: limited by credits
    /// and, in an open loop, by the schedule.
    fn sendable(&self, now_ns: u64) -> usize {
        let by_credit = self.next + self.credits as usize;
        let by_schedule = match self.due_ns {
            None => self.feed.frames(),
            Some(due) => self.next + due[self.next..].partition_point(|&d| d <= now_ns),
        };
        by_credit.min(by_schedule).min(self.feed.frames())
    }

    /// Write as much as is allowed and the socket takes. Returns whether
    /// any byte moved.
    fn pump_writes(&mut self, start: Instant) -> Result<bool, String> {
        let now_ns = start.elapsed().as_nanos() as u64;
        let limit = if self.next == self.feed.frames() {
            if self.bye_held {
                return Ok(false);
            }
            // Data is out; the trailing Bye needs no credit.
            self.feed.bytes.len()
        } else {
            match self.sendable(now_ns) {
                upto if upto > self.next => self.feed.ends[upto - 1],
                _ => return Ok(false),
            }
        };
        if self.written >= limit {
            return Ok(false);
        }
        let n = match self.stream.write(&self.feed.bytes[self.written..limit]) {
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::Interrupted => {
                return Ok(false)
            }
            Err(e) => return Err(io_err("replica write", e)),
        };
        self.written += n;
        while self.next < self.feed.frames() && self.feed.ends[self.next] <= self.written {
            self.sent_ns.push(now_ns);
            self.next += 1;
            self.credits -= 1;
        }
        if self.written == self.feed.bytes.len() {
            self.bye_written = true;
        }
        Ok(n > 0)
    }

    /// How long until the schedule lets this lane send again — `None`
    /// when it is not the schedule that holds it (no credits, socket
    /// full, feed done), in which case waiting for a due time would spin.
    fn until_due(&self, now_ns: u64) -> Option<Duration> {
        let due = *self.due_ns?.get(self.next)?;
        (self.credits > 0 && due > now_ns).then(|| Duration::from_nanos(due - now_ns))
    }
}

/// Stream every replica's feed to completion on the calling thread.
///
/// Returns once every session has seen its `Bye` echoed, or with an error
/// at `deadline`. With `hold_byes`, no `Bye` is written until every data
/// frame of every replica is out and the callback has returned (a traced
/// run inspects the still-complete server there). The sockets are switched to non-blocking here; one loop
/// serves all of them so a replica starved of credits never stalls another
/// (the executor consumes inputs in virtual-time order, so blocking on one
/// session's credits while another's ring runs dry would deadlock).
pub fn send_all(
    sessions: Vec<ReplicaSession>,
    feeds: &[EncodedFeed],
    schedules: &[Schedule],
    deadline: Instant,
    mut hold_byes: Option<&mut (dyn FnMut() + Send)>,
) -> Result<Sent, String> {
    let mut lanes: Vec<Lane<'_>> = Vec::with_capacity(sessions.len());
    for ((s, feed), schedule) in sessions.into_iter().zip(feeds).zip(schedules) {
        s.stream
            .set_nonblocking(true)
            .map_err(|e| io_err("nonblocking", e))?;
        lanes.push(Lane {
            stream: s.stream,
            feed,
            due_ns: schedule.as_deref(),
            credits: s.credits,
            written: 0,
            next: 0,
            sent_ns: Vec::with_capacity(feed.frames()),
            inbuf: Vec::new(),
            bye_held: hold_byes.is_some(),
            bye_written: false,
            bye_echoed: false,
            closed: false,
        });
    }
    let mut scratch = [0u8; 4096];
    let cpu0 = sut::thread_cpu_ns().unwrap_or(0);
    let start = Instant::now();
    while !lanes.iter().all(Lane::done) {
        if hold_byes.is_some() && lanes.iter().all(|l| l.next == l.feed.frames()) {
            if let Some(observe) = hold_byes.take() {
                observe();
            }
            for lane in &mut lanes {
                lane.bye_held = false;
            }
        }
        let mut progressed = false;
        for lane in lanes.iter_mut().filter(|l| !l.done()) {
            progressed |= lane.pump_reads(&mut scratch)?;
            progressed |= lane.pump_writes(start)?;
        }
        if progressed {
            continue;
        }
        if Instant::now() >= deadline {
            return Err("sender hit the deadline".to_string());
        }
        let now_ns = start.elapsed().as_nanos() as u64;
        // An open loop naps until its next frame is due; a loop waiting on
        // credits or the socket naps a fixed beat.
        let until_due = lanes.iter().filter_map(|l| l.until_due(now_ns)).min();
        std::thread::sleep(until_due.map_or(IDLE_NAP, |d| d.min(IDLE_NAP)));
    }
    let cpu_ns = sut::thread_cpu_ns().unwrap_or(0).saturating_sub(cpu0);
    Ok(Sent {
        start,
        replicas: lanes
            .into_iter()
            .map(|l| SentReplica {
                clean: l.bye_echoed,
                sent_ns: l.sent_ns,
            })
            .collect(),
        cpu_ns,
    })
}

/// The subscription, handshake done.
pub struct Subscription {
    stream: TcpStream,
}

/// Connect and complete the `Subscribe`/`Welcome` handshake (class 0, the
/// whole stream, from sequence 0).
pub fn open_subscription(addr: &str) -> Result<Subscription, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| io_err("connect subscribe", e))?;
    stream.set_nodelay(true).map_err(|e| io_err("nodelay", e))?;
    wire::write_frame(
        &mut stream,
        &Frame::Subscribe {
            protocol: PROTOCOL_VERSION,
            subscriber: 1,
            filter: 0,
            resume_from: 0,
            credits: SUBSCRIBER_CREDITS,
        },
    )
    .map_err(|e| io_err("send subscribe", e))?;
    match wire::read_frame(&mut stream) {
        Ok(Some(Frame::Welcome { resume_seq: 0, .. })) => Ok(Subscription { stream }),
        Ok(other) => Err(format!("expected a fresh welcome, got {other:?}")),
        Err(e) => Err(io_err("read welcome", e)),
    }
}

/// What the subscriber received.
pub struct Received {
    /// Every `Data` frame's bytes exactly as they arrived, back to back.
    pub bytes: Vec<u8>,
    /// Data frames received.
    pub frames: usize,
    /// `(frames received so far, clock)` after each socket read that
    /// completed at least one frame: frame `k` arrived at the first entry
    /// whose count exceeds `k`.
    pub arrivals: Vec<(usize, Instant)>,
    /// When the server's `Bye` arrived.
    pub bye_at: Option<Instant>,
    /// The server's CPU times and memory marks, read between the `Bye`
    /// and our echo of it: the server cannot exit before the echo (or its
    /// 5 s close grace), so the read never races its teardown.
    pub server_proc: Option<(CpuTimes, ProcStatus)>,
    /// CPU this thread used while receiving.
    pub cpu_ns: u64,
}

/// Consume the subscription to its `Bye` on the calling thread, granting
/// credits and acking stable points as `lmerge-subscribe` does.
pub fn receive_all(
    sub: Subscription,
    server_pid: u32,
    deadline: Instant,
    frames_received: &AtomicUsize,
) -> Result<Received, String> {
    let mut stream = sub.stream;
    stream
        .set_read_timeout(Some(Duration::from_millis(200)))
        .map_err(|e| io_err("read timeout", e))?;
    let cpu0 = sut::thread_cpu_ns().unwrap_or(0);
    let mut out = Received {
        bytes: Vec::new(),
        frames: 0,
        arrivals: Vec::new(),
        bye_at: None,
        server_proc: None,
        cpu_ns: 0,
    };
    let grant_batch = (SUBSCRIBER_CREDITS / 2) as usize;
    let mut since_grant = 0usize;
    let mut buf = vec![0u8; 256 * 1024];
    let mut filled = 0usize;
    'conn: loop {
        let n = match stream.read(&mut buf[filled..]) {
            Ok(0) => return Err("server closed the subscription without a Bye".to_string()),
            Ok(n) => n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if Instant::now() >= deadline {
                    return Err("subscriber hit the deadline".to_string());
                }
                continue;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(io_err("subscription read", e)),
        };
        let now = Instant::now();
        filled += n;
        let mut pos = 0;
        let before = out.frames;
        loop {
            match wire::decode(&buf[pos..filled]) {
                Ok((Frame::Data { seq, element, .. }, used)) => {
                    out.bytes.extend_from_slice(&buf[pos..pos + used]);
                    out.frames += 1;
                    pos += used;
                    if let Element::Stable(t) = element {
                        let _ = wire::write_frame(&mut stream, &Frame::Ack { seq, stable: t });
                    }
                    since_grant += 1;
                    if since_grant >= grant_batch {
                        wire::write_frame(
                            &mut stream,
                            &Frame::Credit {
                                n: since_grant as u32,
                            },
                        )
                        .map_err(|e| io_err("grant credits", e))?;
                        since_grant = 0;
                    }
                }
                Ok((Frame::Bye, _)) => {
                    out.bye_at = Some(now);
                    if out.frames > before {
                        out.arrivals.push((out.frames, now));
                        frames_received.store(out.frames, Ordering::Relaxed);
                    }
                    out.server_proc = sut::read_proc(server_pid);
                    let _ = wire::write_frame(&mut stream, &Frame::Bye);
                    break 'conn;
                }
                Ok((other, _)) => return Err(format!("unexpected frame from fan-out: {other:?}")),
                Err(WireError::Truncated) => break,
                Err(e) => return Err(io_err("decode from fan-out", e)),
            }
        }
        if out.frames > before {
            out.arrivals.push((out.frames, now));
            frames_received.store(out.frames, Ordering::Relaxed);
        }
        buf.copy_within(pos..filled, 0);
        filled -= pos;
        if filled == buf.len() {
            // One frame larger than the whole buffer: grow rather than stall.
            buf.resize(buf.len() * 2, 0);
        }
    }
    out.cpu_ns = sut::thread_cpu_ns().unwrap_or(0).saturating_sub(cpu0);
    Ok(out)
}

/// Expand chunked arrivals into one receive instant per frame.
pub fn arrival_per_frame(arrivals: &[(usize, Instant)]) -> Vec<Instant> {
    let mut out = Vec::with_capacity(arrivals.last().map_or(0, |a| a.0));
    for &(count, at) in arrivals {
        out.resize(count, at);
    }
    out
}

/// How late an open loop ran: for each frame, written time minus due
/// time (never negative — a frame is not written before it is due).
pub fn lateness_ns(sent_ns: &[u64], due_ns: &[u64]) -> Vec<u64> {
    sent_ns
        .iter()
        .zip(due_ns)
        .map(|(s, d)| s.saturating_sub(*d))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::encode_feed;
    use lmerge::engine::TimedElement;
    use lmerge::temporal::{Time, VTime, Value};
    use std::net::TcpListener;

    fn tiny_feed(n: usize) -> EncodedFeed {
        let feed: Vec<TimedElement<Value>> = (0..n)
            .map(|i| {
                TimedElement::new(
                    VTime(i as u64 * 10),
                    lmerge::temporal::Element::insert(Value::synthetic(i as i32, 8), i as i64, 99),
                )
            })
            .collect();
        encode_feed(&feed)
    }

    /// A scripted ingest peer: welcomes with `initial` credits, then reads
    /// frames and grants `grant` more after every `grant` frames, records
    /// the most frames it ever saw beyond what it had granted, echoes Bye.
    fn fake_ingest(
        listener: TcpListener,
        initial: u32,
        grant: u32,
    ) -> std::thread::JoinHandle<(usize, i64)> {
        std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            assert!(matches!(
                wire::read_frame(&mut s).unwrap(),
                Some(Frame::Hello { input: 0, .. })
            ));
            wire::write_frame(
                &mut s,
                &Frame::Welcome {
                    input: 0,
                    resume_seq: 0,
                    resume_stable: Time::MIN,
                    credits: initial,
                },
            )
            .unwrap();
            let mut granted = initial as i64;
            let mut seen = 0usize;
            let mut worst_overdraft = i64::MIN;
            loop {
                match wire::read_frame(&mut s).unwrap() {
                    Some(Frame::Data { seq, .. }) => {
                        assert_eq!(seq as usize, seen, "frames arrive in order, once");
                        seen += 1;
                        worst_overdraft = worst_overdraft.max(seen as i64 - granted);
                        if seen.is_multiple_of(grant as usize) {
                            // Hold the grant back a moment: the sender
                            // must wait, not run ahead.
                            std::thread::sleep(Duration::from_millis(2));
                            granted += grant as i64;
                            wire::write_frame(&mut s, &Frame::Credit { n: grant }).unwrap();
                        }
                    }
                    Some(Frame::Bye) => {
                        wire::write_frame(&mut s, &Frame::Bye).unwrap();
                        return (seen, worst_overdraft);
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
        })
    }

    #[test]
    fn closed_loop_never_overdraws_credits_and_closes_clean() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let peer = fake_ingest(listener, 4, 4);
        let feed = tiny_feed(37);
        let session = open_replica(&addr, 0).unwrap();
        let sent = send_all(
            vec![session],
            std::slice::from_ref(&feed),
            &[None],
            Instant::now() + Duration::from_secs(20),
            None,
        )
        .unwrap();
        let (seen, overdraft) = peer.join().unwrap();
        assert_eq!(seen, 37);
        assert!(
            overdraft <= 0,
            "sent {overdraft} frames beyond the credits granted"
        );
        assert!(sent.replicas[0].clean);
        assert_eq!(sent.replicas[0].sent_ns.len(), 37);
        assert!(sent.replicas[0].sent_ns.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn open_loop_never_sends_early_and_accounts_lateness() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let peer = fake_ingest(listener, 1000, 1000);
        let feed = tiny_feed(40);
        // One frame per millisecond, the first due 5 ms in.
        let due: Vec<u64> = (0..40u64).map(|i| (5 + i) * 1_000_000).collect();
        let session = open_replica(&addr, 0).unwrap();
        let sent = send_all(
            vec![session],
            std::slice::from_ref(&feed),
            &[Some(due.clone())],
            Instant::now() + Duration::from_secs(20),
            None,
        )
        .unwrap();
        assert_eq!(peer.join().unwrap().0, 40);
        let sent_ns = &sent.replicas[0].sent_ns;
        for (s, d) in sent_ns.iter().zip(&due) {
            assert!(s >= d, "frame due at {d} ns was written at {s} ns");
        }
        let late = lateness_ns(sent_ns, &due);
        assert_eq!(late.len(), 40);
        // A frame written 3 µs after its due time is 3 µs late; one
        // written "before" (clock skew in a synthetic input) is 0 late.
        assert_eq!(
            lateness_ns(&[10_000, 5_000], &[7_000, 6_000]),
            vec![3_000, 0]
        );
    }

    #[test]
    fn arrivals_expand_to_one_instant_per_frame() {
        let t0 = Instant::now();
        let t1 = t0 + Duration::from_millis(1);
        let t2 = t0 + Duration::from_millis(2);
        let per = arrival_per_frame(&[(2, t0), (3, t1), (6, t2)]);
        assert_eq!(per, vec![t0, t0, t1, t2, t2, t2]);
        assert!(arrival_per_frame(&[]).is_empty());
    }

    #[test]
    fn receiver_keeps_raw_bytes_grants_credits_and_echoes_bye() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let feed = tiny_feed(5);
        let payload = feed.bytes.clone();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            assert!(matches!(
                wire::read_frame(&mut s).unwrap(),
                Some(Frame::Subscribe {
                    filter: 0,
                    resume_from: 0,
                    credits: SUBSCRIBER_CREDITS,
                    ..
                })
            ));
            wire::write_frame(
                &mut s,
                &Frame::Welcome {
                    input: 0,
                    resume_seq: 0,
                    resume_stable: Time::MIN,
                    credits: SUBSCRIBER_CREDITS,
                },
            )
            .unwrap();
            // Split mid-frame: the receiver must reassemble.
            s.write_all(&payload[..50]).unwrap();
            std::thread::sleep(Duration::from_millis(5));
            s.write_all(&payload[50..]).unwrap();
            matches!(wire::read_frame(&mut s).unwrap(), Some(Frame::Bye))
        });
        let sub = open_subscription(&addr).unwrap();
        let seen = AtomicUsize::new(0);
        let got = receive_all(
            sub,
            std::process::id(),
            Instant::now() + Duration::from_secs(20),
            &seen,
        )
        .unwrap();
        assert_eq!(seen.load(Ordering::Relaxed), 5);
        assert!(server.join().unwrap(), "Bye echoed");
        assert_eq!(got.frames, 5);
        assert_eq!(got.bytes, feed.bytes[..feed.data_bytes()]);
        assert!(got.bye_at.is_some() && got.server_proc.is_some());
        assert_eq!(arrival_per_frame(&got.arrivals).len(), 5);
    }
}
