//! The subscriber session server: the ingest wire protocol, mirrored.
//!
//! # Session lifecycle
//!
//! A subscriber connects and sends `Subscribe { protocol, subscriber,
//! filter, resume_from, credits }`. The server validates the version and
//! filter class and answers `Welcome`:
//!
//! * `resume_seq` — the first output sequence the server will deliver:
//!   the requested `resume_from`, clamped into the retained window. A
//!   rejoining subscriber asks for exactly the sequence after the last it
//!   processed, and because retention is pinned by its durable cursor it
//!   gets precisely the missing suffix — exactly-once across reconnects,
//!   the mirror image of the ingest side's `next_seq` discipline.
//! * `resume_stable` — the stable point covered by whatever the clamp
//!   skipped (the catch-up point when a demoted subscriber resumes from
//!   the compaction horizon rather than its own cursor).
//! * `credits` — echo of the client's initial grant.
//!
//! # Backpressure and the slow-subscriber policy
//!
//! Credits flow the other way here: the *client* grants, the server
//! spends one per delivered `Data` frame and stalls (counted) when the
//! grant runs dry. A subscriber that stalls long enough to fall more than
//! [`SubPolicy::max_lag_epochs`](crate::SubPolicy) sealed epochs behind
//! stops pinning retention; when it next reads, the epoch it wanted is
//! gone and the session is demoted — it jumps to the horizon and is
//! re-`Welcome`d from there (catch-up-from-stable, the paper's rejoining
//! replica move applied to an output replica).
//!
//! # One thread per session
//!
//! A session is one thread that owns its socket and keeps it
//! non-blocking. It writes the subscriber's chunks and, after each chunk
//! and each idle poll, takes the `Credit`/`Ack`/`Bye` frames that have
//! already arrived. It blocks on the socket only when it may not send:
//! out of credits, or waiting for the `Bye` echo, one `EPOCH_POLL` read
//! timeout at a time.
//!
//! # Telemetry
//!
//! Like the ingest server, this one accepts on `lmerge_net`'s shared
//! listener and accounts for its sessions in the registry only
//! ([`SubMetrics`]): it records no trace.

use crate::buffer::{Chunk, EpochBuffer, EpochWait, SubFilter};
use lmerge_net::listener::{Listener, SessionCounts, HANDSHAKE_TIMEOUT};
use lmerge_net::wire::{self, Frame, FrameReader, PROTOCOL_VERSION};
use lmerge_net::WireError;
use lmerge_obs::{Counter, Gauge, MetricsRegistry};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Subscriber-plane configuration: the filter classes sessions may pick
/// from. Class 0 should usually be [`SubFilter::All`].
#[derive(Clone, Debug)]
pub struct SubConfig {
    /// Filter classes, indexed by the `Subscribe` frame's `filter` field.
    pub filters: Vec<SubFilter>,
}

impl SubConfig {
    /// A single class: the whole stream.
    pub fn new() -> SubConfig {
        SubConfig {
            filters: vec![SubFilter::All],
        }
    }

    /// Add a filter class, returning its id.
    pub fn add_filter(&mut self, f: SubFilter) -> u32 {
        self.filters.push(f);
        (self.filters.len() - 1) as u32
    }
}

impl Default for SubConfig {
    fn default() -> SubConfig {
        SubConfig::new()
    }
}

/// Aggregate live telemetry for the subscriber plane, registered at bind.
/// Per-session series (`subscriber` label) are minted lazily at each
/// handshake from the stored registry handle.
pub struct SubMetrics {
    sessions: SessionCounts,
    sessions_active: Gauge,
    demotions: Counter,
    handshake_drops: Counter,
    credit_stalls: Counter,
    epochs_retained: Gauge,
    next_seq: Gauge,
    flushes: Counter,
}

impl SubMetrics {
    fn new(registry: &MetricsRegistry) -> SubMetrics {
        let l: [(&str, &str); 0] = [];
        SubMetrics {
            sessions: SessionCounts::new(registry, "lmerge_sub", "Subscriber", &l),
            sessions_active: registry.gauge(
                "lmerge_sub_sessions_active",
                "Subscriber sessions currently open.",
                &l,
            ),
            demotions: registry.counter(
                "lmerge_sub_demotions_total",
                "Slow-subscriber demotions: sessions jumped to the compaction horizon.",
                &l,
            ),
            handshake_drops: registry.counter(
                "lmerge_sub_handshake_drops_total",
                "Connections dropped before a session opened (no or bad Subscribe within the \
                 timeout, or a failed Welcome write).",
                &l,
            ),
            credit_stalls: registry.counter(
                "lmerge_sub_credit_stalls_total",
                "Delivery stalls waiting for a subscriber's credit grant.",
                &l,
            ),
            epochs_retained: registry.gauge(
                "lmerge_sub_epochs_retained",
                "Broadcast-buffer epochs currently retained for fan-out.",
                &l,
            ),
            next_seq: registry.gauge(
                "lmerge_sub_next_seq",
                "Next output sequence the broadcast buffer will assign.",
                &l,
            ),
            flushes: registry.counter(
                "lmerge_sub_flushes_total",
                "Chunks the broadcast buffer flushed to sessions (frames / flushes = egress batch).",
                &l,
            ),
        }
    }
}

/// Per-session series, minted at handshake (`subscriber` label).
struct SessionMetrics {
    frames: Counter,
    bytes: Counter,
    lag_epochs: Gauge,
}

impl SessionMetrics {
    fn new(registry: &MetricsRegistry, subscriber: u64) -> SessionMetrics {
        let id = subscriber.to_string();
        let l: [(&str, &str); 1] = [("subscriber", id.as_str())];
        SessionMetrics {
            frames: registry.counter(
                "lmerge_sub_frames_total",
                "Data frames delivered, per subscriber.",
                &l,
            ),
            bytes: registry.counter(
                "lmerge_sub_bytes_total",
                "Wire bytes delivered, per subscriber.",
                &l,
            ),
            lag_epochs: registry.gauge(
                "lmerge_sub_lag_epochs",
                "Sealed epochs the subscriber trails behind the tail.",
                &l,
            ),
        }
    }
}

/// State shared by every thread the subscriber server spawns.
struct SubShared {
    buf: Arc<EpochBuffer>,
    filters: Vec<SubFilter>,
    shutdown: AtomicBool,
    metrics: SubMetrics,
    registry: MetricsRegistry,
}

/// One session's socket and what the subscriber has said on it. The
/// session thread owns both: it takes the subscriber's `Credit`/`Ack`/`Bye`
/// frames between the chunks it writes.
struct Link {
    reader: FrameReader<TcpStream>,
    subscriber: u64,
    credits: u64,
    /// The subscriber sent `Bye` (unsubscribe, or echo of ours).
    bye: bool,
    /// When a frame last arrived from the subscriber — the liveness signal
    /// the close handshake waits on. A wide fan-out can park the whole
    /// stream in socket buffers, so "no echo yet" says nothing; "no frame
    /// for a long quiet period" does.
    last_heard: Instant,
}

impl Link {
    /// Take the frames that have arrived; with `wait`, block for the first
    /// up to the socket's read timeout ([`EPOCH_POLL`]). The highest `Ack`
    /// among them advances the subscriber's durable cursor (pins retention,
    /// persists via checkpoints). Nothing is read after a `Bye`. `false`:
    /// the connection is dead — EOF, a frame that makes no sense here,
    /// corruption, an i/o error.
    fn hear(&mut self, buf: &EpochBuffer, wait: bool) -> bool {
        if self.bye {
            return true;
        }
        let mut next = if wait {
            self.reader.wait_arrived()
        } else {
            self.reader.next_arrived()
        };
        let mut acked = None;
        let alive = loop {
            let frame = match next {
                Ok(Some(frame)) => frame,
                Ok(None) => break true,
                Err(_) => break false,
            };
            self.last_heard = Instant::now();
            match frame {
                Frame::Credit { n } => self.credits += u64::from(n),
                Frame::Ack { seq, .. } => acked = acked.max(Some(seq.saturating_add(1))),
                Frame::Bye => {
                    self.bye = true;
                    break true;
                }
                _ => break false,
            }
            next = self.reader.next_arrived();
        };
        if let Some(seq) = acked {
            buf.ack(self.subscriber, seq);
        }
        alive
    }

    /// Write one frame.
    fn send_frame(&self, frame: &Frame) -> bool {
        self.reader.send(&wire::encode(frame)).is_ok()
    }
}

/// A TCP server fanning the shared [`EpochBuffer`] out to subscribers.
pub struct SubServer {
    listener: Listener,
    shared: Arc<SubShared>,
}

impl SubServer {
    /// Bind to `addr` (port 0 for ephemeral) and start accepting
    /// subscriber sessions over `buf`. Telemetry lands in a private
    /// throwaway registry; use
    /// [`bind_with_metrics`](SubServer::bind_with_metrics) to scrape it.
    pub fn bind(addr: &str, buf: Arc<EpochBuffer>, config: SubConfig) -> io::Result<SubServer> {
        SubServer::bind_with_metrics(addr, buf, config, &MetricsRegistry::new())
    }

    /// Like [`bind`](SubServer::bind), registering the `lmerge_sub_*`
    /// series in the caller's `registry`.
    pub fn bind_with_metrics(
        addr: &str,
        buf: Arc<EpochBuffer>,
        config: SubConfig,
        registry: &MetricsRegistry,
    ) -> io::Result<SubServer> {
        assert!(!config.filters.is_empty(), "at least one filter class");
        let shared = Arc::new(SubShared {
            buf,
            filters: config.filters,
            shutdown: AtomicBool::new(false),
            metrics: SubMetrics::new(registry),
            registry: registry.clone(),
        });
        let accept_shared = Arc::clone(&shared);
        let listener = Listener::bind(addr, move |stream| {
            let shared = Arc::clone(&accept_shared);
            thread::spawn(move || session(shared, stream));
        })?;
        Ok(SubServer { listener, shared })
    }

    /// The bound address (point `lmerge-subscribe` here).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// The shared broadcast buffer this server fans out.
    pub fn buffer(&self) -> &Arc<EpochBuffer> {
        &self.shared.buf
    }

    /// Wait (up to `timeout`) for every accepted session to finish its
    /// close handshake; returns `true` once all have. Call between
    /// publishing `finish()` and [`shutdown`](SubServer::shutdown) so
    /// paced subscribers' final `Bye` round trips are not severed.
    pub fn await_sessions_closed(&self, timeout: Duration) -> bool {
        self.shared.metrics.sessions.await_closed(timeout)
    }

    /// Stop accepting, join the accept loop, and wake blocked sessions.
    /// Live sessions notice the flag within one `EPOCH_POLL` of any wait,
    /// on the buffer or on the socket.
    pub fn shutdown(&mut self) {
        self.listener.stop();
        self.shared.shutdown.store(true, Ordering::Relaxed);
        // Unstick writers blocked on a flush wait.
        self.shared.buf.finish();
    }
}

impl Drop for SubServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// How long a session waits at once — on the buffer for a flush, on the
/// socket for a credit or the `Bye` echo — before re-checking liveness; so
/// it bounds how late [`SubServer::shutdown`] is noticed.
const EPOCH_POLL: Duration = Duration::from_millis(50);

/// How long the close handshake waits for the subscriber's `Bye` echo
/// after last hearing *anything* from it before presuming it dead. A
/// subscriber that vanishes outright is caught much sooner (its socket
/// EOFs); this only bounds the silent-hang case, so generous is safe.
const BYE_IDLE_TIMEOUT: Duration = Duration::from_secs(10);

/// Serve one subscriber: handshake, then stream chunks under credits.
fn session(shared: Arc<SubShared>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    // A peer that connects and says nothing must not pin this thread.
    let _ = stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT));
    // One reader for the connection's life: the handshake frame and the
    // Credit/Ack/Bye stream behind it come out of the same buffer.
    let mut reader = FrameReader::new(stream);
    let (subscriber, class, resume_from, initial_credits) = match reader.next_frame() {
        Ok(Some(Frame::Subscribe {
            protocol,
            subscriber,
            filter,
            resume_from,
            credits,
        })) if protocol == PROTOCOL_VERSION && (filter as usize) < shared.filters.len() => {
            (subscriber, filter, resume_from, credits)
        }
        // Silence, wrong version, wrong frame, unknown class, garbage, or
        // EOF: drop the connection; there is no session to resume.
        _ => {
            shared.metrics.handshake_drops.inc();
            return;
        }
    };
    let filter = shared.filters[class as usize].clone();

    // Clamp the requested cursor into what exists: up to the compaction
    // horizon (a demoted/stale cursor resumes from stable), down to the
    // tail (a cursor from the future is a protocol lie, not a crash).
    let (_, horizon_seq, compact_stable) = shared.buf.horizon();
    let (tail_seq, _, _, _) = shared.buf.stats();
    let demoted_at_join = resume_from < horizon_seq;
    let resume_seq = resume_from.clamp(horizon_seq, tail_seq.max(horizon_seq));
    let welcome = Frame::Welcome {
        input: class,
        resume_seq,
        resume_stable: compact_stable,
        credits: initial_credits,
    };
    let m = &shared.metrics;
    let mut stream = reader.get_ref();
    if wire::write_frame(&mut stream, &welcome).is_err()
        || stream.set_read_timeout(Some(EPOCH_POLL)).is_err()
        || stream.set_nonblocking(true).is_err()
    {
        m.handshake_drops.inc();
        return;
    }
    // Pin retention from the session's position so its window survives
    // until it acks (the durable cursor is monotone, so a rejoin with an
    // older clamped cursor cannot move it backwards).
    shared.buf.ack(subscriber, resume_seq);

    m.sessions.on_open(resume_from > 0);
    m.sessions_active.add(1);
    if demoted_at_join {
        m.demotions.inc();
    }
    let session_m = SessionMetrics::new(&shared.registry, subscriber);
    let link = Link {
        reader,
        subscriber,
        credits: u64::from(initial_credits),
        bye: false,
        last_heard: Instant::now(),
    };
    // The loop owns the link: the socket is closed before the close counts.
    let clean = session_loop(&shared, link, &session_m, class, &filter, resume_seq);
    m.sessions_active.add(-1);
    m.sessions.on_close(clean);
}

/// Stream flushed chunks to one subscriber, taking what it has sent after
/// each chunk and each idle poll. Returns whether the close was clean.
fn session_loop(
    shared: &SubShared,
    mut link: Link,
    session_m: &SessionMetrics,
    class: u32,
    filter: &SubFilter,
    resume_seq: u64,
) -> bool {
    let m = &shared.metrics;
    let mut seq_cursor = resume_seq;
    loop {
        if !link.hear(&shared.buf, false) {
            return false;
        }
        if link.bye {
            // Unsolicited unsubscribe: acknowledge and part cleanly.
            return link.send_frame(&Frame::Bye);
        }
        if shared.shutdown.load(Ordering::Relaxed) {
            return false;
        }
        match shared.buf.wait_from(seq_cursor, EPOCH_POLL) {
            EpochWait::TimedOut => continue,
            EpochWait::Compacted {
                resume_seq: horizon_seq,
                stable,
            } => {
                // Demotion: the epoch this session wanted was retired.
                // Jump to the horizon and re-welcome so the subscriber
                // knows it is catching up from `stable`, not resuming.
                m.demotions.inc();
                let rewelcome = Frame::Welcome {
                    input: class,
                    resume_seq: horizon_seq,
                    resume_stable: stable,
                    credits: 0,
                };
                if !link.send_frame(&rewelcome) {
                    return false;
                }
                seq_cursor = horizon_seq;
                shared.buf.ack(link.subscriber, seq_cursor);
            }
            EpochWait::Finished => {
                // Stream over: initiate the close handshake and wait for
                // the subscriber's echo (mirror of the ingest Bye ack).
                if !link.send_frame(&Frame::Bye) {
                    return false;
                }
                // The wait is bounded by *idle time*, not time-since-Bye:
                // under a wide fan-out the whole stream (Bye included)
                // lands in socket buffers long before a starved-but-live
                // subscriber drains it, and its periodic acks prove it is
                // making progress. A fixed post-Bye deadline severs such
                // sessions mid-drain — and closing with unread acks
                // queued turns the close into an RST that destroys the
                // buffered tail. Only a subscriber that goes *quiet* for
                // the full window is presumed dead. The wait blocks on the
                // socket, one read timeout at a time, so hundreds of
                // finished sessions cost no wake-ups but their peers'.
                let sent = Instant::now();
                while !link.bye {
                    if shared.shutdown.load(Ordering::Relaxed)
                        || link.last_heard.max(sent).elapsed() >= BYE_IDLE_TIMEOUT
                        || !link.hear(&shared.buf, true)
                    {
                        return false;
                    }
                }
                return true;
            }
            EpochWait::Ready {
                chunk,
                seal,
                sealed,
                retained,
                next_seq,
                flushes,
            } => {
                // The gauges ride on the wait result: no second trip to
                // the shared buffer lock per delivery.
                m.next_seq.set(next_seq as i64);
                m.flushes.raise_to(flushes);
                if deliver_chunk(
                    shared, &mut link, session_m, filter, class, &chunk, seq_cursor,
                )
                .is_none()
                {
                    return false;
                }
                seq_cursor = chunk.end_seq();
                if let Some(seal) = seal {
                    m.epochs_retained.set(retained as i64);
                    session_m
                        .lag_epochs
                        .set(sealed.saturating_sub(seal.index) as i64);
                }
            }
        }
    }
}

/// Send one chunk's admitted frames from `seq_cursor` on, spending one
/// credit per frame and coalescing contiguous admitted runs into single
/// writes out of the shared chunk bytes. `None` if the session died.
fn deliver_chunk(
    shared: &SubShared,
    link: &mut Link,
    session_m: &SessionMetrics,
    filter: &SubFilter,
    class: u32,
    chunk: &Chunk,
    seq_cursor: u64,
) -> Option<()> {
    // The whole-stream class admits every frame: no bitmap to build, per
    // chunk, for the class nearly every session is in.
    let bits = (*filter != SubFilter::All).then(|| chunk.bitmap(class, filter));
    let start = (seq_cursor.saturating_sub(chunk.base_seq)) as usize;
    let mut delivered: u64 = 0;
    let mut bytes_sent: u64 = 0;
    // A contiguous run of admitted frames: byte range into the chunk.
    let mut run: Option<(usize, usize)> = None;
    for i in start..chunk.frames() {
        if bits.as_ref().is_some_and(|b| !Chunk::admitted(b, i)) {
            flush(link, chunk, &mut run, &mut bytes_sent)?;
            continue;
        }
        if link.credits == 0 {
            // Flush before blocking so the subscriber can consume what it
            // already has and grant more.
            flush(link, chunk, &mut run, &mut bytes_sent)?;
            take_credits(shared, link)?;
        }
        link.credits -= 1;
        delivered += 1;
        let frame = chunk.frame_bytes(i);
        let off = frame.as_ptr() as usize - chunk.bytes().as_ptr() as usize;
        run = match run {
            Some((a, b)) if b == off => Some((a, off + frame.len())),
            Some(_) => {
                flush(link, chunk, &mut run, &mut bytes_sent)?;
                Some((off, off + frame.len()))
            }
            None => Some((off, off + frame.len())),
        };
    }
    flush(link, chunk, &mut run, &mut bytes_sent)?;
    session_m.frames.add(delivered);
    session_m.bytes.add(bytes_sent);
    Some(())
}

/// Write out the pending run, if any. `None` on i/o failure.
fn flush(
    link: &Link,
    chunk: &Chunk,
    run: &mut Option<(usize, usize)>,
    bytes_sent: &mut u64,
) -> Option<()> {
    if let Some((a, b)) = run.take() {
        link.reader.send(&chunk.bytes()[a..b]).ok()?;
        *bytes_sent += (b - a) as u64;
    }
    Some(())
}

/// The credits in hand are spent — a stall, counted: take the grants that
/// have arrived, and wait on the socket only if none has. `None` means the
/// session is over.
fn take_credits(shared: &SubShared, link: &mut Link) -> Option<()> {
    shared.metrics.credit_stalls.inc();
    let mut wait = false;
    while link.credits == 0 {
        if link.bye || shared.shutdown.load(Ordering::Relaxed) || !link.hear(&shared.buf, wait) {
            return None;
        }
        wait = true;
    }
    Some(())
}

/// Errors a subscriber client/server interaction surfaces to callers.
pub type SubResult<T> = Result<T, WireError>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{subscribe, subscribe_until_finished, SubscribeConfig};
    use crate::SubPolicy;
    use lmerge_temporal::{Element, Time, VTime, Value};

    fn publish_feed(buf: &EpochBuffer, n: u64) -> Vec<u8> {
        // Reference bytes: the canonical encoding of the full stream.
        let mut reference = Vec::new();
        let mut seq = {
            let (s, _, _, _) = buf.stats();
            s
        };
        for i in 0..n {
            let elements = vec![
                Element::insert(Value::bare(i as i32), i as i64, i as i64 + 5),
                Element::<Value>::stable(Time(i as i64 * 10 + 1)),
            ];
            for e in &elements {
                wire::encode_into(
                    &Frame::Data {
                        seq,
                        at: VTime(i),
                        element: e.clone(),
                    },
                    &mut reference,
                );
                seq += 1;
            }
            buf.publish(VTime(i), &elements);
        }
        reference
    }

    #[test]
    fn one_subscriber_gets_the_stream_byte_identically() {
        let buf = Arc::new(EpochBuffer::new(SubPolicy::default()));
        let server = SubServer::bind("127.0.0.1:0", Arc::clone(&buf), SubConfig::new()).unwrap();
        let addr = server.local_addr().to_string();
        let client =
            thread::spawn(move || subscribe(&addr, &SubscribeConfig::new(1)).expect("subscribe"));
        let reference = publish_feed(&buf, 30);
        buf.finish();
        let outcome = client.join().unwrap();
        assert!(outcome.clean && outcome.finished);
        assert_eq!(outcome.resumed_from, 0);
        assert_eq!(outcome.received, 60);
        assert_eq!(outcome.bytes, reference, "fan-out is byte-identical");
    }

    #[test]
    fn filtered_subscriber_gets_its_slice_plus_all_stables() {
        let buf = Arc::new(EpochBuffer::new(SubPolicy::default()));
        let mut config = SubConfig::new();
        let class = config.add_filter(SubFilter::KeyMod {
            modulus: 2,
            residue: 0,
        });
        let server = SubServer::bind("127.0.0.1:0", Arc::clone(&buf), config).unwrap();
        let addr = server.local_addr().to_string();
        let client = thread::spawn(move || {
            subscribe(&addr, &SubscribeConfig::new(2).with_filter(class)).expect("subscribe")
        });
        publish_feed(&buf, 20);
        buf.finish();
        let outcome = client.join().unwrap();
        assert!(outcome.clean && outcome.finished);
        // 10 even-keyed inserts + all 20 stables.
        assert_eq!(outcome.received, 30);
        for (_, _, e) in &outcome.frames {
            match e {
                Element::Insert(ev) => assert_eq!(ev.payload.key % 2, 0),
                Element::Adjust { payload, .. } => assert_eq!(payload.key % 2, 0),
                Element::Stable(_) => {}
            }
        }
        // Sequences are the global stream's (gaps where odd keys were),
        // so a reconnect cursor still means one thing.
        assert!(outcome.frames.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn kill_and_resume_is_exactly_once() {
        let buf = Arc::new(EpochBuffer::new(SubPolicy::default()));
        let server = SubServer::bind("127.0.0.1:0", Arc::clone(&buf), SubConfig::new()).unwrap();
        let addr = server.local_addr().to_string();
        let reference = publish_feed(&buf, 40);
        buf.finish();
        let outcome =
            subscribe_until_finished(&addr, &SubscribeConfig::new(3).with_kill_after(17), 8)
                .expect("stitched subscription");
        assert!(outcome.clean && outcome.finished);
        assert!(outcome.attempts > 1, "the kill forced at least one resume");
        assert_eq!(outcome.bytes, reference, "stitched output byte-identical");
        let _ = server;
    }

    /// `n` inserts (keys `from..from + n`, no stable) and their canonical
    /// encoding at the buffer's next sequences; published, not flushed.
    fn publish_inserts(buf: &EpochBuffer, from: i32, n: i32) -> Vec<u8> {
        let elements: Vec<Element<Value>> = (from..from + n)
            .map(|k| Element::insert(Value::bare(k), k as i64, k as i64 + 5))
            .collect();
        let mut reference = Vec::new();
        for (seq, e) in (buf.stats().0..).zip(&elements) {
            let frame = Frame::Data {
                seq,
                at: VTime(9),
                element: e.clone(),
            };
            wire::encode_into(&frame, &mut reference);
        }
        buf.publish(VTime(9), &elements);
        reference
    }

    /// Spin until `n` sessions have completed their handshake.
    fn await_opened(registry: &MetricsRegistry, n: f64) {
        while registry.sum_value("lmerge_sub_sessions_opened_total") != Some(n) {
            thread::sleep(Duration::from_millis(1));
        }
    }

    /// The guard CI runs by name: delivery does not wait for punctuation.
    #[test]
    fn open_tail_reaches_a_live_subscriber_before_any_stable() {
        let buf = Arc::new(EpochBuffer::new(SubPolicy::default()));
        let registry = MetricsRegistry::new();
        let server = SubServer::bind_with_metrics(
            "127.0.0.1:0",
            Arc::clone(&buf),
            SubConfig::new(),
            &registry,
        )
        .unwrap();
        let addr = server.local_addr().to_string();
        // `kill_after` makes the client return at its third frame: there
        // will be no stable and no `finish` to end the session for it.
        let client = thread::spawn(move || {
            subscribe(&addr, &SubscribeConfig::new(1).with_kill_after(3)).expect("subscribe")
        });
        let reference = publish_inserts(&buf, 0, 3);
        await_opened(&registry, 1.0);
        // Published is not visible; visibility = flush.
        assert_eq!(registry.sum_value("lmerge_sub_frames_total"), Some(0.0));
        buf.flush();
        let outcome = client.join().unwrap();
        assert_eq!(outcome.received, 3);
        assert_eq!(outcome.bytes, reference);
        assert_eq!(buf.stats().2, 0, "delivered with no epoch sealed");
    }

    #[test]
    fn kill_inside_an_open_epoch_resumes_exactly_once() {
        for seals_before_rejoin in [false, true] {
            let buf = Arc::new(EpochBuffer::new(SubPolicy::default()));
            let server =
                SubServer::bind("127.0.0.1:0", Arc::clone(&buf), SubConfig::new()).unwrap();
            let addr = server.local_addr().to_string();
            let mut reference = publish_inserts(&buf, 0, 5);
            buf.flush();
            let part1 =
                subscribe(&addr, &SubscribeConfig::new(3).with_kill_after(3)).expect("part 1");
            assert_eq!((part1.received, part1.clean), (3, false));
            assert_eq!(buf.stats().2, 0, "the kill landed inside the open epoch");
            if seals_before_rejoin {
                reference.extend(publish_feed(&buf, 1));
            }
            let rejoin = {
                let addr = addr.clone();
                thread::spawn(move || {
                    subscribe(&addr, &SubscribeConfig::new(3).with_resume_from(3)).expect("part 2")
                })
            };
            reference.extend(publish_inserts(&buf, 10, 2));
            reference.extend(publish_feed(&buf, 2));
            buf.finish();
            let part2 = rejoin.join().unwrap();
            assert!(part2.clean && part2.finished);
            assert_eq!(part2.resumed_from, 3, "the cursor was honored mid-epoch");
            let mut stitched = part1.bytes;
            stitched.extend_from_slice(&part2.bytes);
            assert_eq!(
                stitched, reference,
                "seals_before_rejoin={seals_before_rejoin}"
            );
        }
    }

    #[test]
    fn a_filter_class_over_several_chunks_of_one_epoch_matches_the_filter() {
        // Keep every epoch: the two join while the feed is published.
        let policy = SubPolicy {
            retain_min_epochs: u64::MAX,
            ..SubPolicy::default()
        };
        let buf = Arc::new(EpochBuffer::new(policy));
        let mut config = SubConfig::new();
        let filter = SubFilter::KeyMod {
            modulus: 3,
            residue: 1,
        };
        let class = config.add_filter(filter.clone());
        let server = SubServer::bind("127.0.0.1:0", Arc::clone(&buf), config).unwrap();
        let addr = server.local_addr().to_string();
        let subscribe_class = |class: u32| {
            let addr = addr.clone();
            thread::spawn(move || {
                subscribe(
                    &addr,
                    &SubscribeConfig::new(class as u64).with_filter(class),
                )
                .expect("subscribe")
            })
        };
        let (full, slice) = (subscribe_class(0), subscribe_class(class));
        // Two epochs of three chunks each: two flushed mid-epoch, the third
        // by the seal.
        for epoch in 0..2 {
            for piece in 0..3 {
                publish_inserts(&buf, epoch * 100 + piece * 7, 7);
                buf.flush();
            }
            let seal = Element::<Value>::stable(Time(epoch as i64 + 1));
            buf.publish(VTime(9), &[seal]);
        }
        assert_eq!((buf.flushes(), buf.stats().2), (8, 2));
        buf.finish();
        let (full, slice) = (full.join().unwrap(), slice.join().unwrap());
        assert!(full.clean && slice.clean);
        let expected: Vec<_> = full
            .frames
            .iter()
            .filter(|(_, _, e)| filter.admits(e))
            .cloned()
            .collect();
        assert_eq!(slice.frames, expected);
        let stables = |o: &crate::SubOutcome| {
            o.frames
                .iter()
                .filter(|(_, _, e)| matches!(e, Element::Stable(_)))
                .count()
        };
        assert_eq!((stables(&full), stables(&slice)), (2, 2));
        assert!(slice.received > 2 && slice.received < full.received);
    }

    #[test]
    fn a_join_at_the_tail_of_an_open_epoch_gets_only_later_frames() {
        let buf = Arc::new(EpochBuffer::new(SubPolicy::default()));
        let registry = MetricsRegistry::new();
        let server = SubServer::bind_with_metrics(
            "127.0.0.1:0",
            Arc::clone(&buf),
            SubConfig::new(),
            &registry,
        )
        .unwrap();
        let addr = server.local_addr().to_string();
        publish_inserts(&buf, 0, 4);
        buf.flush();
        let client = thread::spawn(move || {
            subscribe(&addr, &SubscribeConfig::new(6).with_resume_from(4)).expect("join")
        });
        await_opened(&registry, 1.0);
        let mut later = publish_inserts(&buf, 4, 2);
        later.extend(publish_feed(&buf, 1));
        buf.finish();
        let outcome = client.join().unwrap();
        assert!(outcome.clean && outcome.finished);
        assert_eq!(outcome.resumed_from, 4, "welcomed at next_seq");
        assert_eq!(outcome.bytes, later);
        assert_eq!(
            registry.sum_value("lmerge_sub_flushes_total"),
            Some(2.0),
            "the session mirrored the buffer's flush count"
        );
    }

    #[test]
    fn a_subscriber_ahead_of_a_restored_image_skips_the_re_emitted_overlap() {
        // The checkpoint holds seqs 0..3; the subscriber had streamed 0..5
        // out of the open epoch when the process died.
        let before = EpochBuffer::new(SubPolicy::default());
        publish_inserts(&before, 0, 3);
        let buf = Arc::new(EpochBuffer::restore(&before.image(), SubPolicy::default()).unwrap());
        let registry = MetricsRegistry::new();
        let server = SubServer::bind_with_metrics(
            "127.0.0.1:0",
            Arc::clone(&buf),
            SubConfig::new(),
            &registry,
        )
        .unwrap();
        let addr = server.local_addr().to_string();
        let client = thread::spawn(move || {
            subscribe(&addr, &SubscribeConfig::new(8).with_resume_from(5)).expect("rejoin")
        });
        await_opened(&registry, 1.0);
        // The restored merge re-emits 3 and 4, then carries on.
        publish_inserts(&buf, 3, 2);
        let mut unseen = publish_inserts(&buf, 5, 2);
        unseen.extend(publish_feed(&buf, 1));
        buf.finish();
        let outcome = client.join().unwrap();
        assert!(outcome.clean && outcome.finished);
        assert_eq!(outcome.resumed_from, 3, "clamped down to the restored tail");
        assert_eq!(
            outcome.bytes, unseen,
            "exactly once: nothing it already held"
        );
    }

    #[test]
    fn stale_resume_is_demoted_to_the_horizon() {
        let policy = SubPolicy {
            retain_min_epochs: 1,
            ..SubPolicy::default()
        };
        let buf = Arc::new(EpochBuffer::new(policy));
        publish_feed(&buf, 10); // 10 epochs, seqs 0..20
        buf.ack(99, 20); // a fast subscriber let everything compact
        let (first_index, horizon_seq, _) = buf.horizon();
        assert!(first_index > 0 && horizon_seq > 0);
        let registry = MetricsRegistry::new();
        let server = SubServer::bind_with_metrics(
            "127.0.0.1:0",
            Arc::clone(&buf),
            SubConfig::new(),
            &registry,
        )
        .unwrap();
        let addr = server.local_addr().to_string();
        buf.finish();
        // Asks for seq 0, which is long gone: welcomed from the horizon.
        let outcome = subscribe(&addr, &SubscribeConfig::new(4)).expect("subscribe");
        assert!(outcome.clean && outcome.finished);
        assert_eq!(outcome.resumed_from, horizon_seq);
        assert_eq!(outcome.received, 20 - horizon_seq);
        assert_eq!(
            registry.sum_value("lmerge_sub_demotions_total"),
            Some(1.0),
            "the clamped join counts as a demotion"
        );
    }

    #[test]
    fn tiny_credit_grants_still_deliver_everything() {
        let buf = Arc::new(EpochBuffer::new(SubPolicy::default()));
        let registry = MetricsRegistry::new();
        let server = SubServer::bind_with_metrics(
            "127.0.0.1:0",
            Arc::clone(&buf),
            SubConfig::new(),
            &registry,
        )
        .unwrap();
        let addr = server.local_addr().to_string();
        let client = thread::spawn(move || {
            subscribe(&addr, &SubscribeConfig::new(5).with_credits(2)).expect("subscribe")
        });
        let reference = publish_feed(&buf, 50);
        buf.finish();
        let outcome = client.join().unwrap();
        assert!(outcome.clean && outcome.finished);
        assert_eq!(outcome.bytes, reference);
        assert!(
            registry
                .sum_value("lmerge_sub_credit_stalls_total")
                .unwrap_or(0.0)
                >= 1.0,
            "a 2-credit window must have stalled at least once"
        );
    }

    /// A subscriber whose window covers the whole stream never stalls, so
    /// its acks must be taken between chunks: retention follows them epoch
    /// by epoch rather than growing until a credit stall that never comes.
    #[test]
    fn acks_release_epochs_without_a_credit_stall() {
        let policy = SubPolicy::default();
        let buf = Arc::new(EpochBuffer::new(policy));
        let registry = MetricsRegistry::new();
        let server = SubServer::bind_with_metrics(
            "127.0.0.1:0",
            Arc::clone(&buf),
            SubConfig::new(),
            &registry,
        )
        .unwrap();
        let addr = server.local_addr().to_string();
        let epochs = 8;
        let client = thread::spawn(move || {
            subscribe(&addr, &SubscribeConfig::new(9).with_credits(4 * epochs)).expect("subscribe")
        });
        await_opened(&registry, 1.0);
        let mut retained_max = 0;
        for i in 0..epochs {
            let elements = [
                Element::insert(Value::bare(i as i32), i as i64, i as i64 + 5),
                Element::<Value>::stable(Time(i as i64 + 1)),
            ];
            buf.publish(VTime(i as u64), &elements);
            // The sealed epoch's stable is acked once it arrives.
            let acked = buf.stats().0;
            let deadline = Instant::now() + Duration::from_secs(2);
            while !buf.cursors().contains(&(9, acked)) {
                assert!(Instant::now() < deadline, "epoch {i}'s ack was not taken");
                thread::sleep(Duration::from_millis(1));
            }
            retained_max = retained_max.max(buf.stats().3);
        }
        buf.finish();
        let outcome = client.join().unwrap();
        assert!(outcome.clean && outcome.finished);
        assert_eq!(outcome.received, 2 * epochs as u64);
        assert!(
            retained_max <= policy.retain_min_epochs + 1,
            "retained {retained_max} epochs"
        );
        assert_eq!(
            registry.sum_value("lmerge_sub_credit_stalls_total"),
            Some(0.0)
        );
    }

    #[test]
    fn an_unsolicited_bye_on_an_idle_stream_is_echoed_and_closes_clean() {
        let buf = Arc::new(EpochBuffer::new(SubPolicy::default()));
        let registry = MetricsRegistry::new();
        let server = SubServer::bind_with_metrics(
            "127.0.0.1:0",
            Arc::clone(&buf),
            SubConfig::new(),
            &registry,
        )
        .unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(1)))
            .unwrap();
        let subscribe = Frame::Subscribe {
            protocol: PROTOCOL_VERSION,
            subscriber: 7,
            filter: 0,
            resume_from: 0,
            credits: 16,
        };
        wire::write_frame(&mut stream, &subscribe).unwrap();
        let mut reader = FrameReader::new(stream.try_clone().unwrap());
        assert!(matches!(
            reader.next_frame(),
            Ok(Some(Frame::Welcome { .. }))
        ));
        // Nothing is published: the session waits on the buffer, not on
        // this socket, and still hears the `Bye`.
        let asked = Instant::now();
        wire::write_frame(&mut stream, &Frame::Bye).unwrap();
        assert_eq!(reader.next_frame(), Ok(Some(Frame::Bye)));
        while registry.sum_value("lmerge_sub_session_closes_clean_total") != Some(1.0) {
            assert!(asked.elapsed() < Duration::from_secs(1), "no clean close");
            thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(
            registry.sum_value("lmerge_sub_session_closes_lost_total"),
            Some(0.0)
        );
    }

    #[test]
    fn many_subscribers_share_one_encoding() {
        // Keep every epoch: the eight join while the feed is published, and
        // one that acks before another has joined must not compact the
        // prefix away from under it.
        let policy = SubPolicy {
            retain_min_epochs: u64::MAX,
            ..SubPolicy::default()
        };
        let buf = Arc::new(EpochBuffer::new(policy));
        let registry = MetricsRegistry::new();
        let server = SubServer::bind_with_metrics(
            "127.0.0.1:0",
            Arc::clone(&buf),
            SubConfig::new(),
            &registry,
        )
        .unwrap();
        let addr = server.local_addr().to_string();
        let clients: Vec<_> = (0..8)
            .map(|s| {
                let addr = addr.clone();
                thread::spawn(move || {
                    subscribe(&addr, &SubscribeConfig::new(100 + s)).expect("subscribe")
                })
            })
            .collect();
        let reference = publish_feed(&buf, 25);
        buf.finish();
        for c in clients {
            let outcome = c.join().unwrap();
            assert!(outcome.clean && outcome.finished);
            assert_eq!(outcome.bytes, reference);
        }
        assert!(server.await_sessions_closed(Duration::from_secs(5)));
        assert_eq!(
            registry.sum_value("lmerge_sub_sessions_opened_total"),
            Some(8.0)
        );
        assert_eq!(
            registry.sum_value("lmerge_sub_session_closes_clean_total"),
            Some(8.0)
        );
    }
}
