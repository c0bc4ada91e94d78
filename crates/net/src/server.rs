//! The ingest server: one TCP connection per input, read on the merge
//! thread by the input's [`NetSource`].
//!
//! # Session lifecycle
//!
//! A client connects and sends `Hello { protocol, input }`. A short-lived
//! handshake thread validates it, claims the input (waiting briefly for the
//! merge side to release a dying predecessor's connection), answers
//! `Welcome { resume_seq, resume_stable, credits }`, installs the stream in
//! the input's slot and exits:
//!
//! * `resume_seq` — the next data sequence the server will accept. Data
//!   sequence numbers are the *feed index*, so a rejoining replayer
//!   simply skips `feed[..resume_seq]` — everything the server already
//!   holds (consumed **or** still buffered) is covered, giving
//!   exactly-once delivery across crashes without any replay log.
//! * `resume_stable` — the last stable point the merge side actually
//!   consumed (the paper's catch-up point for a rejoining replica).
//! * `credits` — free buffer slots: how many data frames the client may
//!   send before waiting for `Credit` grants.
//!
//! From then on only the merge side reads the connection: when the input a
//! [`NetSource`] must deliver has nothing buffered, it reads *every*
//! input's connection, so one that died is released within a wait even
//! while the executor waits on another, and a rejoin's claim wakes the
//! moment it is. `Bye` finishes the input and is echoed; EOF, a gap or a
//! bad checksum end the session as lost. After the merge,
//! [`IngestServer::serve_until`] does the reading.
//!
//! # Backpressure
//!
//! An input holds at most `ring_capacity` decoded, unconsumed frames (the
//! window): the merge side stops reading a full input, and TCP pushes back
//! on the client. Credits keep a well-behaved client inside the window: the
//! [`NetSource`] grants `credit_batch` back each time it has consumed that
//! many, and samples the input's depth into `lmerge_net_queue_depth`.
//!
//! # Pay per read, not per frame
//!
//! A refill takes the whole frames its [`FrameReader`] holds, then one
//! non-blocking `read`'s worth, up to the window, and publishes `next_seq`
//! and the frame/byte counters once for the lot; a bad frame ends the
//! session *after* the good ones before it count. Sessions, credits and
//! depth are counted in [`NetMetrics`] only: the server records no trace,
//! so a networked run's trace is the in-process run's by construction.
//!
//! # Flush at every wait
//!
//! The merge thread waits in one place: [`NetSource::next`], when the
//! input it must deliver is empty after a refill (and
//! [`IngestServer::serve_until`], after the merge). Before every wait it
//! hands over everything it owes — the queued `Ack`/`Credit` frames, which
//! otherwise leave in one `write` when a credit batch is due, and the
//! consumer's output, through the [`NetSource::on_quiet`] hook — so
//! nothing it made sits in user space while it sleeps. The wait itself is
//! one coalescing interval, `WAIT`: what arrives during one wait is merged
//! and handed over as one batch, so a steady feed pays a wake and a flush
//! per wait, not per frame, and output follows its input within about
//! half a millisecond. A saturated input is never empty, so it never waits.

use crate::listener::{Listener, SessionCounts, HANDSHAKE_TIMEOUT};
use crate::wire::{self, Frame, FrameReader, WireError, PROTOCOL_VERSION};
use lmerge_engine::{Source, TimedElement};
use lmerge_obs::{Counter, Gauge, MetricsRegistry};
use lmerge_temporal::{Element, Time, Value};
use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// How long the merge thread sleeps between refills of inputs it found
/// empty, once it has flushed everything it owes (the kernel's default
/// timer slack adds up to another 50 µs). Shorter waits cut latency and
/// cost server CPU per element; this is the shortest at which no benchmark
/// workload's CPU per element rose above that of a 50 µs poll flushing
/// only on a pause (the interval curve in EXPERIMENTS.md, "flush at every
/// wait"). An input that keeps waiting gets at most a window (256 frames)
/// per wait, ≈ 730 K frames/s; one that has more never waits.
const WAIT: Duration = Duration::from_micros(300);

/// How long a rejoin's handshake waits for the merge side to release its
/// predecessor's connection before it gives up.
const CLAIM_WAIT: Duration = Duration::from_secs(2);

/// Ingest server sizing.
#[derive(Clone, Copy, Debug)]
pub struct IngestConfig {
    /// Number of inputs (one TCP session each).
    pub inputs: usize,
    /// Decoded frames an input may hold unconsumed — the window, the hard
    /// in-flight bound per connection: the merge side stops reading a
    /// connection whose input holds this many.
    pub ring_capacity: usize,
    /// Credits granted back per batch of consumed frames. Must be smaller
    /// than `ring_capacity` or clients could starve waiting for a grant.
    pub credit_batch: u32,
}

impl IngestConfig {
    /// Defaults: a 256-frame window, credits granted 32 at a time.
    pub fn new(inputs: usize) -> IngestConfig {
        IngestConfig {
            inputs,
            ring_capacity: 256,
            credit_batch: 32,
        }
    }
}

/// Wall-clock telemetry handles for one input's sessions, and the signal
/// of its release.
struct InputNetMetrics {
    sessions: SessionCounts,
    /// Notified, under the input's lock, when [`Inbox::release`] closes
    /// its connection: a rejoin's claim waits on it.
    released: Condvar,
    frames: Counter,
    bytes: Counter,
    credits: Counter,
    checksum_failures: Counter,
    next_seq: Gauge,
    queue_depth: Gauge,
}

/// Per-input live telemetry for an ingest server, pre-registered at bind
/// so the merge side and the handshakes only ever touch lock-free handles.
pub struct NetMetrics {
    inputs: Vec<InputNetMetrics>,
    /// Connections dropped before a session existed; they name no input.
    handshake_drops: Counter,
}

impl NetMetrics {
    /// Register the per-input series (`input` label = input id) in
    /// `registry` for `inputs` inputs.
    pub fn new(registry: &MetricsRegistry, inputs: usize) -> NetMetrics {
        let inputs = (0..inputs)
            .map(|i| {
                let id = i.to_string();
                let l: [(&str, &str); 1] = [("input", id.as_str())];
                InputNetMetrics {
                    sessions: SessionCounts::new(registry, "lmerge_net", "Ingest", &l),
                    released: Condvar::new(),
                    frames: registry.counter(
                        "lmerge_net_frames_total",
                        "Data frames accepted into the input's buffer, per input.",
                        &l,
                    ),
                    bytes: registry.counter(
                        "lmerge_net_bytes_total",
                        "Wire bytes of accepted data frames (envelope + payload + checksum).",
                        &l,
                    ),
                    credits: registry.counter(
                        "lmerge_net_credits_granted_total",
                        "Flow-control credits granted back to the client.",
                        &l,
                    ),
                    checksum_failures: registry.counter(
                        "lmerge_net_checksum_failures_total",
                        "Data frames rejected for a checksum mismatch.",
                        &l,
                    ),
                    next_seq: registry.gauge(
                        "lmerge_net_next_seq",
                        "Next data sequence the server will accept (frames consumed so far).",
                        &l,
                    ),
                    queue_depth: registry.gauge(
                        "lmerge_net_queue_depth",
                        "Frames decoded but not yet consumed, sampled at each credit grant.",
                        &l,
                    ),
                }
            })
            .collect();
        NetMetrics {
            inputs,
            handshake_drops: registry.counter(
                "lmerge_net_handshake_drops_total",
                "Connections dropped before a session opened (no or bad Hello within the timeout, \
                 the input still held by another session, or a failed Welcome write).",
                &[],
            ),
        }
    }
}

/// One input: its decoded, unconsumed frames, its live connection and its
/// resume cursors. A handshake thread locks it only to claim the input and
/// install a stream; the stream is read on the merge side alone.
struct Inbox {
    /// `(seq, element)`; never longer than the window.
    buf: VecDeque<(u64, TimedElement<Value>)>,
    conn: Option<FrameReader<TcpStream>>,
    /// Next data sequence the server will accept (== frames that entered
    /// `buf` so far, since sequences are dense from 0).
    next_seq: u64,
    /// The last stable point the merge side consumed.
    acked_stable: Time,
    /// Set on a clean `Bye`: the stream is over once `buf` is empty.
    finished: bool,
    /// Frames the merge side has consumed — the checkpoint resume cursor.
    pops: u64,
}

impl Inbox {
    /// Take what the connection has: the whole frames already buffered,
    /// then one non-blocking `read`, decoded into `buf` up to `window`.
    /// `Bye`, EOF, a gap or corruption end the session here.
    fn refill(&mut self, live: &InputNetMetrics, window: usize) {
        let Some(reader) = self.conn.as_mut() else {
            return;
        };
        let (mut frames, mut bytes, mut read) = (0u64, 0u64, false);
        // `Some(clean)` once the session is over.
        let verdict = loop {
            // A full input is not read on: TCP pushes back. The control
            // frame after the window's last data frame (a `Bye`) still is.
            if self.buf.len() >= window && reader.data_next() {
                break None;
            }
            match reader.next_buffered() {
                Ok(Some((Frame::Data { seq, at, element }, size))) => {
                    if seq < self.next_seq {
                        // Duplicate from before the resume point (client
                        // raced a reconnect); exactly-once by dropping here.
                        continue;
                    }
                    if seq > self.next_seq {
                        break Some(false); // gap: protocol violation
                    }
                    self.buf.push_back((seq, TimedElement::new(at, element)));
                    self.next_seq += 1;
                    frames += 1;
                    bytes += size as u64;
                }
                Ok(Some((Frame::Bye, _))) => break Some(true),
                Ok(Some(_)) => break Some(false), // wrong frame for this state
                Ok(None) if !read => {
                    read = true;
                    match reader.fill() {
                        Ok(n) if n > 0 => {}
                        Err(WireError::Io(io::ErrorKind::WouldBlock)) => break None,
                        // EOF without `Bye` (at a frame boundary or inside
                        // one): the replica died mid-stream. `finished`
                        // stays unset; it may rejoin from `next_seq`.
                        _ => break Some(false),
                    }
                }
                Ok(None) => break None,
                Err(e) => {
                    if let WireError::Checksum { .. } = e {
                        live.checksum_failures.inc();
                    }
                    break Some(false);
                }
            }
        };
        // Whatever ended the refill, the frames before it are buffered and
        // count: publish them before the session's end is acted on.
        if frames > 0 {
            live.frames.add(frames);
            live.bytes.add(bytes);
            live.next_seq.set(self.next_seq as i64);
        }
        match verdict {
            Some(true) => {
                self.finished = true;
                // Acknowledge the close: through a faulty transport a
                // client's successful *write* of `Bye` does not prove
                // *delivery*, so it only reports a clean session once
                // this echo arrives (and resends the `Bye` otherwise).
                let _ = reader.get_ref().write_all(&wire::encode(&Frame::Bye));
                self.release(live, true);
            }
            Some(false) => self.release(live, false),
            None => {}
        }
    }

    /// Write the queued control frames in one `write` and clear them. A
    /// write that fails — or would block: a client that leaves a socket
    /// buffer of them unread has stopped listening — ends the session.
    fn flush(&mut self, live: &InputNetMetrics, out: &mut Vec<u8>) {
        let failed = |r: &FrameReader<TcpStream>| r.get_ref().write_all(out).is_err();
        if !out.is_empty() && self.conn.as_ref().is_some_and(failed) {
            self.release(live, false);
        }
        out.clear();
    }

    /// Close the live connection, if any, count how its session ended, and
    /// wake a rejoin waiting to claim the input.
    fn release(&mut self, live: &InputNetMetrics, clean: bool) {
        if self.conn.take().is_some() {
            live.sessions.on_close(clean);
            live.released.notify_all();
        }
    }
}

/// State shared by the handshake threads and the merge side.
struct ServerShared {
    inputs: Vec<Mutex<Inbox>>,
    shutdown: AtomicBool,
    /// Frames an input may hold unconsumed (`IngestConfig::ring_capacity`).
    window: usize,
    credit_batch: u32,
    metrics: NetMetrics,
}

impl ServerShared {
    /// Input `input`'s inbox. Its holders change it in whole steps — a
    /// frame queued or taken, a connection installed or dropped, a cursor
    /// set — none of which unwinds halfway, so a poisoned inbox is still
    /// whole; it is taken as is rather than turning one panicked thread
    /// into a panic on every later read of the input.
    fn inbox(&self, input: usize) -> MutexGuard<'_, Inbox> {
        self.inputs[input]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Refill every input from its connection.
    fn refill_all(&self) {
        for (i, live) in self.metrics.inputs.iter().enumerate() {
            self.inbox(i).refill(live, self.window);
        }
    }
}

/// The merge thread's one wait, between refills of inputs it found empty;
/// also the cadence of the subscriber server's passes once the merge has
/// stopped (`lmerge_sub::SubServer::serve_until`). Its callers have flushed
/// what they owe before they call it.
pub fn wait() {
    thread::sleep(WAIT);
}

/// A TCP ingest server feeding `inputs` independent element streams.
pub struct IngestServer {
    listener: Listener,
    shared: Arc<ServerShared>,
    sources_taken: bool,
}

impl IngestServer {
    /// Bind to `addr` (use port 0 for an ephemeral port) and start
    /// accepting sessions. Live telemetry lands in a private throwaway
    /// registry; use [`bind_with_metrics`](IngestServer::bind_with_metrics)
    /// to make it scrapeable.
    pub fn bind(addr: &str, config: IngestConfig) -> io::Result<IngestServer> {
        IngestServer::bind_with_metrics(addr, config, &MetricsRegistry::new())
    }

    /// Like [`bind`](IngestServer::bind), registering the per-input net
    /// series (sessions, frames, bytes, credits, queue depth, corruption)
    /// in the caller's `registry` so a scrape endpoint can expose them live.
    /// A config whose `ring_capacity` does not exceed its `credit_batch`
    /// is `InvalidInput`.
    pub fn bind_with_metrics(
        addr: &str,
        config: IngestConfig,
        registry: &MetricsRegistry,
    ) -> io::Result<IngestServer> {
        if config.ring_capacity <= config.credit_batch as usize {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "ring_capacity must exceed credit_batch or clients starve",
            ));
        }
        let inputs = (0..config.inputs)
            .map(|_| {
                Mutex::new(Inbox {
                    buf: VecDeque::with_capacity(config.ring_capacity),
                    conn: None,
                    next_seq: 0,
                    acked_stable: Time::MIN,
                    finished: false,
                    pops: 0,
                })
            })
            .collect();
        let shared = Arc::new(ServerShared {
            inputs,
            shutdown: AtomicBool::new(false),
            window: config.ring_capacity,
            credit_batch: config.credit_batch,
            metrics: NetMetrics::new(registry, config.inputs),
        });
        let accept_shared = Arc::clone(&shared);
        let listener = Listener::bind(addr, move |stream| {
            let shared = Arc::clone(&accept_shared);
            thread::spawn(move || handshake(&shared, stream));
        })?;
        Ok(IngestServer {
            listener,
            shared,
            sources_taken: false,
        })
    }

    /// The bound address (connect clients and proxies here).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// Take the merge-side sources, one per input, in input order. Each
    /// is the single consumer of its input; callable once. The connections
    /// are read only inside a source's [`next`](Source::next) and
    /// [`serve_until`](IngestServer::serve_until).
    pub fn sources(&mut self) -> Vec<NetSource> {
        assert!(
            !std::mem::replace(&mut self.sources_taken, true),
            "sources() already taken"
        );
        (0..self.shared.inputs.len())
            .map(|i| NetSource {
                input: i as u32,
                shared: Arc::clone(&self.shared),
                since_credit: 0,
                out: Vec::new(),
                on_quiet: None,
            })
            .collect()
    }

    /// A cloneable handle reading the live resume cursors — what a
    /// checkpoint sink polls at each cut while the server itself stays
    /// owned by the accept/teardown path.
    pub fn cursor_handle(&self) -> CursorHandle {
        CursorHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Pre-seed each input's resume cursor from a restored checkpoint.
    /// Call before any client connects: a rejoining replayer is then
    /// welcomed with `resume_seq` equal to the checkpoint's consumed
    /// prefix and replays exactly what the restored merge has not seen.
    pub fn restore_cursors(&self, cursors: &[(u64, i64)]) {
        for (inbox, &(next_seq, acked)) in self.shared.inputs.iter().zip(cursors) {
            // Whole when poisoned: see `ServerShared::inbox`.
            let mut inbox = inbox.lock().unwrap_or_else(PoisonError::into_inner);
            inbox.next_seq = next_seq;
            inbox.acked_stable = Time(acked);
        }
    }

    /// Read every connection (each input up to its window) once per wait
    /// until `done()` holds. The merge completes at watermark = ∞, which a
    /// client reaches while its tail and `Bye` may still be in flight, and
    /// nothing else reads the connections after it: a caller waiting on
    /// replicas that are still finishing serves them here.
    pub fn serve_until(&self, mut done: impl FnMut() -> bool) {
        loop {
            self.shared.refill_all();
            if done() {
                return;
            }
            wait();
        }
    }

    /// [`serve_until`](IngestServer::serve_until) every accepted session
    /// has finished its close handshake, or `timeout` passes; `true` once
    /// all have. Call it between merge completion and
    /// [`shutdown`](IngestServer::shutdown), which severs what is open.
    pub fn await_sessions_closed(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        self.serve_until(|| self.sessions_closed() || Instant::now() >= deadline);
        self.sessions_closed()
    }

    /// Every session accepted so far has closed.
    pub fn sessions_closed(&self) -> bool {
        let inputs = &self.shared.metrics.inputs;
        inputs.iter().all(|m| m.sessions.all_closed())
    }

    /// Stop accepting, join the accept loop, and sever live sessions.
    pub fn shutdown(&mut self) {
        self.listener.stop();
        self.shared.shutdown.store(true, Ordering::Relaxed);
        for (i, live) in self.shared.metrics.inputs.iter().enumerate() {
            self.shared.inbox(i).release(live, false);
        }
    }
}

impl Drop for IngestServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Serve one connection's handshake: read its `Hello`, claim the input,
/// answer `Welcome`, and install the stream for the merge side to read.
fn handshake(shared: &ServerShared, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT));
    let mut reader = FrameReader::new(stream);
    let input = match reader.next_frame() {
        Ok(Some(Frame::Hello { protocol, input }))
            if protocol == PROTOCOL_VERSION && (input as usize) < shared.inputs.len() =>
        {
            input
        }
        // Silence, wrong version, wrong frame, garbage, or EOF: drop the
        // connection; there is no session to resume.
        _ => {
            shared.metrics.handshake_drops.inc();
            return;
        }
    };
    // Claim the input. After an unclean disconnect the predecessor's
    // connection stays installed until the merge side reads its end, so
    // wait for its release (or `shutdown`, which releases every input)
    // rather than rejecting the rejoin.
    let live = &shared.metrics.inputs[input as usize];
    let held = |inbox: &mut Inbox| inbox.conn.is_some() && !shared.shutdown.load(Ordering::Relaxed);
    let (mut inbox, _) = live
        .released
        .wait_timeout_while(shared.inbox(input as usize), CLAIM_WAIT, held)
        .unwrap_or_else(PoisonError::into_inner);
    if shared.shutdown.load(Ordering::Relaxed) {
        return;
    }
    if inbox.conn.is_none() {
        let welcome = Frame::Welcome {
            input,
            resume_seq: inbox.next_seq,
            resume_stable: inbox.acked_stable,
            credits: (shared.window - inbox.buf.len()) as u32,
        };
        let mut stream = reader.get_ref();
        if wire::write_frame(&mut stream, &welcome).is_ok() && stream.set_nonblocking(true).is_ok()
        {
            live.sessions.on_open(inbox.next_seq > 0);
            inbox.conn = Some(reader);
            return;
        }
    }
    // The input is still held by a live session, or the `Welcome` could
    // not be written: no session for this one.
    shared.metrics.handshake_drops.inc();
}

/// A cloneable reader of the server's live per-input transport resume
/// cursors, for a checkpoint. The *consumed* count — not `next_seq` — is
/// the exactly-once resume point: frames buffered but never consumed die
/// with the process, so a restarted server must have the client re-send
/// them.
#[derive(Clone)]
pub struct CursorHandle {
    shared: Arc<ServerShared>,
}

impl CursorHandle {
    /// `(consumed frames, acked stable)` per input, in input order.
    ///
    /// A consumed count includes the frame the executor has staged but not
    /// yet merged; `DurableCheckpointSink` discounts staged frames when
    /// persisting, so checkpointed cursors mean *delivered into the
    /// merge* and a restored server replays the staged frame.
    pub fn cursors(&self) -> Vec<(u64, i64)> {
        (0..self.shared.inputs.len())
            .map(|i| {
                let inbox = self.shared.inbox(i);
                (inbox.pops, inbox.acked_stable.0)
            })
            .collect()
    }
}

/// The merge-side end of one input: an engine [`Source`] that reads the
/// connections when its input has nothing buffered, blocks until the
/// connected replica delivers (or finishes), grants credits as it
/// consumes, and acks consumed stable points.
pub struct NetSource {
    input: u32,
    shared: Arc<ServerShared>,
    since_credit: u32,
    /// `Ack`/`Credit` frames encoded but not yet written.
    out: Vec<u8>,
    /// The consumer's own output flush, run before every wait (see
    /// [`NetSource::on_quiet`]).
    on_quiet: Option<Box<dyn FnMut() + Send>>,
}

impl NetSource {
    /// The input id this source feeds.
    pub fn input(&self) -> u32 {
        self.input
    }

    /// Extend the flush-before-block rule to the consumer's output: run
    /// `flush` every time [`next`](Source::next) is about to wait, after
    /// the queued control frames have left (so once per wait while idle:
    /// it must be free when there is nothing to flush). The thread that
    /// merges is the thread that sleeps here, so what it emitted must not
    /// sit in user space while it does. The length of the wait is what
    /// keeps a steady mid-rate feed from paying a wake-up and a socket
    /// write per frame: whatever arrives during one wait is merged and
    /// handed over as one batch.
    #[must_use]
    pub fn on_quiet(mut self, flush: impl FnMut() + Send + 'static) -> NetSource {
        self.on_quiet = Some(Box::new(flush));
        self
    }

    /// Consume the input's next buffered frame: count it, queue the ack of
    /// a stable point, and grant credits when a batch is due.
    fn pop(&mut self) -> Option<TimedElement<Value>> {
        let mut inbox = self.shared.inbox(self.input as usize);
        let (seq, te) = inbox.buf.pop_front()?;
        inbox.pops += 1;
        if let Element::Stable(t) = te.element {
            inbox.acked_stable = t;
            wire::encode_into(&Frame::Ack { seq, stable: t }, &mut self.out);
        }
        self.since_credit += 1;
        if self.since_credit >= self.shared.credit_batch {
            let n = std::mem::take(&mut self.since_credit);
            wire::encode_into(&Frame::Credit { n }, &mut self.out);
            let live = &self.shared.metrics.inputs[self.input as usize];
            inbox.flush(live, &mut self.out);
            live.credits.add(n as u64);
            live.queue_depth.set(inbox.buf.len() as i64);
        }
        Some(te)
    }
}

impl Source<Value> for NetSource {
    fn next(&mut self) -> Option<TimedElement<Value>> {
        loop {
            if let Some(te) = self.pop() {
                return Some(te);
            }
            // Nothing buffered: read every input's connection — this one
            // for what it sent, the others so that one that died while the
            // executor waits here is released and its replica can rejoin.
            self.shared.refill_all();
            let live = &self.shared.metrics.inputs[self.input as usize];
            let mut inbox = self.shared.inbox(self.input as usize);
            if !inbox.buf.is_empty() {
                continue;
            }
            // Flush before blocking: the client may be waiting on exactly
            // the frames queued here, and the frame that would flush them
            // on the client — a grant held back is a deadlock, an ack a stall.
            inbox.flush(live, &mut self.out);
            if inbox.finished || self.shared.shutdown.load(Ordering::Relaxed) {
                return None;
            }
            drop(inbox);
            // The consumer's output (the egress buffer) leaves too: the
            // merge thread owes nothing while it waits.
            if let Some(flush) = &mut self.on_quiet {
                flush();
            }
            wait();
        }
    }

    fn memory_bytes(&self) -> usize {
        // Deliberately 0: the input's buffer is window-bounded transport
        // buffering, not merge state, and its depth is the queue-depth
        // gauge. Counting it would shift every `memory_sampled` trace line
        // off the in-process run's.
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{replay, replay_until_clean, ReplayConfig};
    use lmerge_temporal::VTime;
    use std::net::Shutdown;

    #[test]
    fn a_window_no_larger_than_the_credit_batch_is_invalid_input() {
        for extra in [0, 1] {
            let mut config = IngestConfig::new(1);
            config.ring_capacity = config.credit_batch as usize - extra;
            let refused = IngestServer::bind("127.0.0.1:0", config).err();
            assert_eq!(
                refused.map(|e| e.kind()),
                Some(io::ErrorKind::InvalidInput),
                "ring_capacity = credit_batch - {extra}"
            );
        }
        let mut config = IngestConfig::new(1);
        config.ring_capacity = config.credit_batch as usize + 1;
        assert!(IngestServer::bind("127.0.0.1:0", config).is_ok());
    }

    /// Drain input 0's source to completion on this thread.
    fn drain(server: &mut IngestServer) -> Vec<TimedElement<Value>> {
        let mut src = server.sources().remove(0);
        std::iter::from_fn(|| src.next()).collect()
    }

    fn feed(n: u64) -> Vec<TimedElement<Value>> {
        let mut v: Vec<TimedElement<Value>> = (0..n)
            .map(|i| {
                TimedElement::new(
                    VTime(i * 10),
                    Element::insert(Value::bare(i as i32), i as i64, i as i64 + 5),
                )
            })
            .collect();
        v.push(TimedElement::new(
            VTime(n * 10),
            Element::stable(Time::INFINITY),
        ));
        v
    }

    /// Bind a server whose series land in a registry the test can read.
    fn bind_metered(config: IngestConfig) -> (IngestServer, MetricsRegistry) {
        let registry = MetricsRegistry::new();
        let server = IngestServer::bind_with_metrics("127.0.0.1:0", config, &registry).unwrap();
        (server, registry)
    }

    /// The sum of one series over every input (0 if it is missing).
    fn total(registry: &MetricsRegistry, name: &str) -> f64 {
        registry.sum_value(name).unwrap_or(0.0)
    }

    #[test]
    fn single_input_round_trip() {
        let (mut server, registry) = bind_metered(IngestConfig::new(1));
        let addr = server.local_addr().to_string();
        let sent = feed(40);
        let client_feed = sent.clone();
        let client = thread::spawn(move || {
            replay(&addr, &client_feed, &ReplayConfig::new(0)).expect("replay")
        });
        let got = drain(&mut server);
        let outcome = client.join().unwrap();
        assert!(outcome.clean);
        assert_eq!(outcome.sent, 41);
        assert_eq!(got, sent, "elements and stamps survive the socket");
        assert!(server.await_sessions_closed(Duration::from_secs(5)));
        assert_eq!(total(&registry, "lmerge_net_sessions_opened_total"), 1.0);
        assert_eq!(
            total(&registry, "lmerge_net_session_closes_clean_total"),
            1.0
        );
    }

    /// The replayer reads the server's `Ack`s between its own writes and
    /// while it waits for the `Bye` echo: a clean session ends knowing the
    /// last stable point the merge consumed.
    #[test]
    fn a_clean_replay_reports_the_last_stable_the_merge_consumed() {
        let (mut server, _registry) = bind_metered(IngestConfig::new(1));
        let addr = server.local_addr().to_string();
        let mut sent: Vec<TimedElement<Value>> = (0..4)
            .map(|i| TimedElement::new(VTime(i), Element::insert(Value::bare(i as i32), 1, 50)))
            .collect();
        for t in [10, 20, 30] {
            sent.push(TimedElement::new(VTime(t as u64), Element::stable(Time(t))));
        }
        let client_feed = sent.clone();
        // The server echoes `Bye` when it reads it, not when the merge has
        // consumed what came before; the pace puts the `Bye` well behind
        // the last stable's consumption and the flush of its `Ack`.
        let client = thread::spawn(move || {
            replay(
                &addr,
                &client_feed,
                &ReplayConfig::new(0).with_pace_us(20_000),
            )
            .expect("replay")
        });
        assert_eq!(drain(&mut server), sent);
        let outcome = client.join().unwrap();
        let consumed = Time(server.cursor_handle().cursors()[0].1);
        assert_eq!(consumed, Time(30));
        assert!(outcome.clean);
        assert_eq!(outcome.acked_stable, consumed);
    }

    #[test]
    fn small_ring_exercises_credit_backpressure() {
        let config = IngestConfig {
            inputs: 1,
            ring_capacity: 8,
            credit_batch: 4,
        };
        let (mut server, registry) = bind_metered(config);
        let addr = server.local_addr().to_string();
        let sent = feed(200);
        let client_feed = sent.clone();
        let client = thread::spawn(move || {
            replay(&addr, &client_feed, &ReplayConfig::new(0)).expect("replay")
        });
        let got = drain(&mut server);
        client.join().unwrap();
        assert_eq!(got, sent, "nothing lost under a tiny ring");
        let credits = total(&registry, "lmerge_net_credits_granted_total");
        assert!(credits >= 190.0, "credits flowed: {credits}");
    }

    /// Frames already buffered cost no call of the output hook, and every
    /// sleep is preceded by one. The client sends each burst only once it
    /// has read the previous burst's `Ack`, which leaves when the source is
    /// about to sleep: the input is empty at one refill per burst, and the
    /// next burst may arrive within that one sleep — it still cost a call.
    #[test]
    fn the_output_hook_runs_before_every_sleep() {
        use std::sync::atomic::AtomicUsize;
        const BURSTS: usize = 20;
        // No credit batch comes due: each stable's `Ack` is written only by
        // the flush before a sleep.
        let config = IngestConfig {
            inputs: 1,
            ring_capacity: 256,
            credit_batch: 255,
        };
        let mut server = IngestServer::bind("127.0.0.1:0", config).unwrap();
        let (mut stream, _) = hello(&server, 0);
        let mut reader = FrameReader::new(stream.try_clone().unwrap());
        // Three inserts and a stable per burst.
        let sent: Vec<TimedElement<Value>> = (0..BURSTS as u64 * 4)
            .map(|i| {
                let element = if i % 4 == 3 {
                    Element::stable(Time(i as i64))
                } else {
                    Element::insert(Value::bare(i as i32), i as i64, i as i64 + 50)
                };
                TimedElement::new(VTime(i), element)
            })
            .collect();
        let frames = data_frames(&sent);
        let burst_bytes = frames.len() / BURSTS;
        let mut bursts = frames.chunks(burst_bytes);
        stream.write_all(bursts.next().unwrap()).unwrap();
        let calls = Arc::new(AtomicUsize::new(0));
        let hook = Arc::clone(&calls);
        let mut source = server.sources().remove(0).on_quiet(move || {
            hook.fetch_add(1, Ordering::Relaxed);
        });
        while server.shared.inbox(0).next_seq < 4 {
            server.shared.refill_all();
            thread::sleep(Duration::from_millis(1));
        }
        for te in &sent[..4] {
            assert_eq!(source.next().as_ref(), Some(te));
        }
        assert_eq!(calls.load(Ordering::Relaxed), 0, "the input never ran dry");
        let drained = thread::spawn(move || std::iter::from_fn(|| source.next()).collect());
        for (k, burst) in bursts.enumerate() {
            let stable = Time(4 * k as i64 + 3);
            assert!(
                matches!(reader.next_frame(), Ok(Some(Frame::Ack { stable: s, .. })) if s == stable)
            );
            stream.write_all(burst).unwrap();
        }
        assert!(matches!(reader.next_frame(), Ok(Some(Frame::Ack { .. }))));
        wire::write_frame(&mut stream, &Frame::Bye).unwrap();
        let got: Vec<TimedElement<Value>> = drained.join().unwrap();
        assert_eq!(got, sent[4..]);
        let calls = calls.load(Ordering::Relaxed);
        assert!(
            calls >= BURSTS,
            "{calls} hook calls for {BURSTS} empty stretches"
        );
    }

    #[test]
    fn queued_control_frames_are_flushed_before_the_source_blocks() {
        let config = IngestConfig {
            inputs: 1,
            ring_capacity: 8,
            credit_batch: 4,
        };
        let mut server = IngestServer::bind("127.0.0.1:0", config).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let hello = Frame::Hello {
            protocol: PROTOCOL_VERSION,
            input: 0,
        };
        wire::write_frame(&mut stream, &hello).unwrap();
        let mut reader = FrameReader::new(stream.try_clone().unwrap());
        assert!(matches!(
            reader.next_frame(),
            Ok(Some(Frame::Welcome { credits: 8, .. }))
        ));
        // Spend 7 of the 8 credits, the last frame a stable: 1 credit left.
        let mut sent = feed(6);
        sent[6].element = Element::stable(Time(3));
        let mut bytes = Vec::new();
        for (i, te) in sent.iter().enumerate() {
            let frame = Frame::Data {
                seq: i as u64,
                at: te.at,
                element: te.element.clone(),
            };
            wire::encode_into(&frame, &mut bytes);
        }
        stream.write_all(&bytes).unwrap();

        let mut source = server.sources().remove(0);
        for te in &sent {
            assert_eq!(source.next().as_ref(), Some(te));
        }
        // The ring is empty and the client has sent all it will: the merge
        // side now blocks. The 4th pop wrote `Credit{4}` as its batch came
        // due; the stable's `Ack` was only queued (3 pops into the next
        // batch). Nothing will pop again to flush it, so it arrives only
        // because `next` flushes before it sleeps — without that this read
        // waits for a frame that is waiting for a pop that is waiting for
        // this client.
        let blocked = thread::spawn(move || source.next());
        assert_eq!(reader.next_frame(), Ok(Some(Frame::Credit { n: 4 })));
        assert_eq!(
            reader.next_frame(),
            Ok(Some(Frame::Ack {
                seq: 6,
                stable: Time(3)
            })),
            "the queued ack left user space before the source slept"
        );
        wire::write_frame(&mut stream, &Frame::Bye).unwrap();
        assert_eq!(blocked.join().unwrap(), None, "Bye ends the blocked source");
    }

    #[test]
    fn registry_sees_live_session_series() {
        let registry = MetricsRegistry::new();
        let mut server =
            IngestServer::bind_with_metrics("127.0.0.1:0", IngestConfig::new(1), &registry)
                .unwrap();
        let addr = server.local_addr().to_string();
        let sent = feed(60);
        let wire_bytes: u64 = sent
            .iter()
            .enumerate()
            .map(|(i, te)| {
                wire::encode(&Frame::Data {
                    seq: i as u64,
                    at: te.at,
                    element: te.element.clone(),
                })
                .len() as u64
            })
            .sum();
        let client_feed = sent.clone();
        let client = thread::spawn(move || {
            replay(&addr, &client_feed, &ReplayConfig::new(0)).expect("replay")
        });
        let got = drain(&mut server);
        client.join().unwrap();
        assert_eq!(got, sent);
        let get = |name: &str| {
            registry
                .sum_value(name)
                .unwrap_or_else(|| panic!("{name} missing"))
        };
        assert_eq!(get("lmerge_net_sessions_opened_total"), 1.0);
        assert_eq!(get("lmerge_net_session_closes_clean_total"), 1.0);
        assert_eq!(get("lmerge_net_resumes_total"), 0.0, "fresh session");
        assert_eq!(get("lmerge_net_frames_total"), 61.0);
        assert_eq!(
            get("lmerge_net_bytes_total"),
            wire_bytes as f64,
            "byte counter matches the exact wire encoding"
        );
        assert_eq!(get("lmerge_net_next_seq"), 61.0);
        assert!(get("lmerge_net_credits_granted_total") >= 32.0);
        assert_eq!(get("lmerge_net_checksum_failures_total"), 0.0);
    }

    #[test]
    fn await_sessions_closed_observes_the_bye_handshake() {
        let (mut server, registry) = bind_metered(IngestConfig::new(1));
        let addr = server.local_addr().to_string();
        let sent = feed(20);
        let client_feed = sent.clone();
        let client = thread::spawn(move || {
            replay(&addr, &client_feed, &ReplayConfig::new(0)).expect("replay")
        });
        let got = drain(&mut server);
        assert_eq!(got, sent);
        assert!(
            server.await_sessions_closed(Duration::from_secs(5)),
            "clean close lands within the grace period"
        );
        assert!(client.join().unwrap().clean);
        assert_eq!(
            total(&registry, "lmerge_net_session_closes_clean_total"),
            1.0
        );
    }

    #[test]
    fn a_rejoin_while_the_input_is_live_is_dropped_and_counted() {
        let (server, registry) = bind_metered(IngestConfig::new(1));
        let hello = Frame::Hello {
            protocol: PROTOCOL_VERSION,
            input: 0,
        };
        let mut live = TcpStream::connect(server.local_addr()).unwrap();
        wire::write_frame(&mut live, &hello).unwrap();
        assert!(matches!(
            wire::read_frame(&mut live),
            Ok(Some(Frame::Welcome { .. }))
        ));
        // A second replica says Hello for the same input while the first
        // still holds its ring: the claim wait runs out, the connection
        // closes without a Welcome, and the drop is counted.
        let mut second = TcpStream::connect(server.local_addr()).unwrap();
        second
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        wire::write_frame(&mut second, &hello).unwrap();
        assert_eq!(wire::read_frame(&mut second), Ok(None), "EOF, no Welcome");
        assert_eq!(total(&registry, "lmerge_net_handshake_drops_total"), 1.0);
        assert_eq!(total(&registry, "lmerge_net_sessions_opened_total"), 1.0);
    }

    #[test]
    fn await_sessions_closed_times_out_on_a_hung_session() {
        let registry = MetricsRegistry::new();
        let server =
            IngestServer::bind_with_metrics("127.0.0.1:0", IngestConfig::new(1), &registry)
                .unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        wire::write_frame(
            &mut stream,
            &Frame::Hello {
                protocol: PROTOCOL_VERSION,
                input: 0,
            },
        )
        .unwrap();
        assert!(matches!(
            wire::read_frame(&mut stream),
            Ok(Some(Frame::Welcome { .. }))
        ));
        // Session opened but never closing: the wait must give up.
        while registry.sum_value("lmerge_net_sessions_opened_total") != Some(1.0) {
            thread::sleep(Duration::from_micros(200));
        }
        assert!(!server.await_sessions_closed(Duration::from_millis(50)));
    }

    #[test]
    fn restored_cursors_resume_a_restarted_server_exactly_once() {
        let sent = feed(40);

        // First incarnation: the client dies after 25 frames, the merge
        // side consumes exactly what arrived, and we cut a cursor image —
        // then the whole process "dies" (server dropped, ring lost).
        let mut server = IngestServer::bind("127.0.0.1:0", IngestConfig::new(1)).unwrap();
        let addr = server.local_addr().to_string();
        let client_feed = sent.clone();
        let client = thread::spawn(move || {
            replay(
                &addr,
                &client_feed,
                &ReplayConfig::new(0).with_kill_after(25),
            )
            .expect("replay")
        });
        let outcome = client.join().unwrap();
        assert!(!outcome.clean);
        assert_eq!(outcome.sent, 25);
        let mut source = server.sources().remove(0);
        let mut got: Vec<TimedElement<Value>> = Vec::new();
        for _ in 0..25 {
            got.push(source.next().expect("killed client's frames all arrive"));
        }
        let cursors = server.cursor_handle().cursors();
        assert_eq!(cursors, vec![(25, Time::MIN.0)]);
        drop(source);
        drop(server);

        // Second incarnation on a fresh port: cursors restored from the
        // "checkpoint", the same client feed replayed. The handshake must
        // skip the consumed prefix and deliver only the missing suffix.
        let mut server = IngestServer::bind("127.0.0.1:0", IngestConfig::new(1)).unwrap();
        server.restore_cursors(&cursors);
        let addr = server.local_addr().to_string();
        let client_feed = sent.clone();
        let client = thread::spawn(move || {
            replay(&addr, &client_feed, &ReplayConfig::new(0)).expect("replay")
        });
        got.extend(drain(&mut server));
        let outcome = client.join().unwrap();
        assert!(outcome.clean);
        assert_eq!(
            outcome.resumed_from, 25,
            "welcome carried the restored cursor"
        );
        assert_eq!(
            outcome.sent, 16,
            "only the unconsumed suffix crossed the wire"
        );
        assert_eq!(got, sent, "exactly-once across the restart");
    }

    #[test]
    fn bad_version_is_rejected_without_panicking() {
        let mut server = IngestServer::bind("127.0.0.1:0", IngestConfig::new(1)).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        wire::write_frame(
            &mut stream,
            &Frame::Hello {
                protocol: 999,
                input: 0,
            },
        )
        .unwrap();
        // The server drops the connection instead of welcoming us.
        assert!(matches!(wire::read_frame(&mut stream), Ok(None) | Err(_)));
        // The input is still claimable by a correct client afterwards.
        let addr = server.local_addr().to_string();
        let sent = feed(5);
        let client_feed = sent.clone();
        let client =
            thread::spawn(move || replay(&addr, &client_feed, &ReplayConfig::new(0)).unwrap());
        let got = drain(&mut server);
        client.join().unwrap();
        assert_eq!(got, sent);
    }

    /// Connect a raw client for `input` and read its `Welcome`.
    fn hello(server: &IngestServer, input: u32) -> (TcpStream, Frame) {
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let hello = Frame::Hello {
            protocol: PROTOCOL_VERSION,
            input,
        };
        wire::write_frame(&mut stream, &hello).unwrap();
        let welcome = wire::read_frame(&mut stream).unwrap().expect("welcome");
        assert!(matches!(welcome, Frame::Welcome { .. }));
        (stream, welcome)
    }

    /// `feed` as encoded data frames, from sequence 0.
    fn data_frames(feed: &[TimedElement<Value>]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for (i, te) in feed.iter().enumerate() {
            let frame = Frame::Data {
                seq: i as u64,
                at: te.at,
                element: te.element.clone(),
            };
            wire::encode_into(&frame, &mut bytes);
        }
        bytes
    }

    #[test]
    fn frames_a_dead_replica_left_in_the_kernel_are_delivered_exactly_once() {
        let (mut server, registry) = bind_metered(IngestConfig::new(1));
        let sent = feed(40);
        // The replica writes its 40 inserts, hangs up and is gone before
        // the merge side has read a byte of them.
        let (mut dead, _) = hello(&server, 0);
        dead.write_all(&data_frames(&sent[..40])).unwrap();
        dead.shutdown(Shutdown::Both).unwrap();
        drop(dead);
        // Its rejoin is welcomed only once the merge side has read the
        // dead connection to its end, so it resumes behind all 40.
        let addr = server.local_addr().to_string();
        let client_feed = sent.clone();
        let client = thread::spawn(move || {
            replay_until_clean(&addr, &client_feed, &ReplayConfig::new(0), 10).expect("rejoin")
        });
        let got = drain(&mut server);
        let outcome = client.join().unwrap();
        assert!(outcome.clean);
        assert_eq!(outcome.resumed_from, 40);
        assert_eq!(outcome.sent, 1);
        assert_eq!(got, sent, "exactly once");
        assert_eq!(
            total(&registry, "lmerge_net_session_closes_lost_total"),
            1.0
        );
        assert_eq!(total(&registry, "lmerge_net_frames_total"), 41.0);
    }

    #[test]
    fn a_rejoin_is_welcomed_while_the_merge_waits_on_a_silent_input() {
        let mut server = IngestServer::bind("127.0.0.1:0", IngestConfig::new(2)).unwrap();
        let (mut silent, _) = hello(&server, 1);
        let (dying, _) = hello(&server, 0);
        let mut waiting = server.sources().pop().unwrap();
        assert_eq!(waiting.input(), 1);
        let blocked = thread::spawn(move || waiting.next());
        thread::sleep(Duration::from_millis(20));
        // Input 0's replica dies; the merge, waiting on input 1, reads its
        // end on its next poll, so the rejoin's claim succeeds at once.
        dying.shutdown(Shutdown::Both).unwrap();
        drop(dying);
        let started = Instant::now();
        let (_rejoined, welcome) = hello(&server, 0);
        let took = started.elapsed();
        assert!(took < Duration::from_millis(500), "Welcome took {took:?}");
        assert!(matches!(welcome, Frame::Welcome { resume_seq: 0, .. }));
        wire::write_frame(&mut silent, &Frame::Bye).unwrap();
        assert_eq!(blocked.join().unwrap(), None);
    }

    #[test]
    fn a_client_flooding_past_its_credits_loses_nothing_and_never_overfills_its_input() {
        let config = IngestConfig {
            inputs: 1,
            ring_capacity: 8,
            credit_batch: 4,
        };
        let (mut server, registry) = bind_metered(config);
        let sent = feed(79); // 80 frames: ten windows
        let (mut flood, _) = hello(&server, 0);
        let mut bytes = data_frames(&sent);
        wire::encode_into(&Frame::Bye, &mut bytes);
        let flooder = thread::spawn(move || {
            flood.write_all(&bytes).unwrap();
            let mut reader = FrameReader::new(flood);
            while !matches!(
                reader.next_frame(),
                Ok(Some(Frame::Bye)) | Ok(None) | Err(_)
            ) {}
        });
        let mut source = server.sources().remove(0);
        let mut got = Vec::new();
        while let Some(te) = source.next() {
            got.push(te);
            assert!(server.shared.inbox(0).buf.len() <= 8);
            assert!(total(&registry, "lmerge_net_queue_depth") <= 8.0);
        }
        flooder.join().unwrap();
        assert_eq!(got, sent, "nothing lost");
        assert!(server.await_sessions_closed(Duration::from_secs(5)));
        assert_eq!(
            total(&registry, "lmerge_net_session_closes_clean_total"),
            1.0
        );
    }
}
