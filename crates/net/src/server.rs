//! The ingest server: one TCP connection per input, feeding decoded
//! elements into the virtual-time executor through bounded SPSC rings.
//!
//! # Session lifecycle
//!
//! A client opens a connection and sends `Hello { protocol, input }`. The
//! server validates the version and input id, claims the input's producer
//! half (waiting briefly if a dying predecessor session still holds it),
//! and answers `Welcome { resume_seq, resume_stable, credits }`:
//!
//! * `resume_seq` — the next data sequence the server will accept. Data
//!   sequence numbers are the *feed index*, so a rejoining replayer
//!   simply skips `feed[..resume_seq]` — everything the server already
//!   holds (acked **or** still sitting un-popped in the ring) is covered,
//!   giving exactly-once delivery across crashes without any replay log.
//! * `resume_stable` — the last stable point the merge side actually
//!   consumed (the paper's catch-up point for a rejoining replica).
//! * `credits` — free ring slots: how many data frames the client may
//!   send before waiting for `Credit` grants.
//!
//! # Backpressure
//!
//! The ring is the hard limit: a session thread that finds it full spins
//! (the socket's TCP window then pushes back on the client). Credits are
//! the *advisory* layer that keeps well-behaved clients from ever hitting
//! that spin: the merge-side [`NetSource`] grants `credit_batch` credits
//! back each time it has popped that many items, and samples the ring's
//! occupancy into `lmerge_net_queue_depth` as it does.
//!
//! # Pay per read, not per frame
//!
//! A session reads its socket through one [`FrameReader`]: every whole
//! frame of a refill is sequence-checked and pushed to the ring, and only
//! then are `next_seq` and the frame/byte counters published, once, for the
//! lot. A bad frame ends the session *after* the good frames before it in
//! the same buffer were delivered and counted, so the resume point a
//! rejoining client is welcomed with is exactly what the ring took. The
//! merge side mirrors it: `Ack`/`Credit` frames are queued in the
//! [`NetSource`] and leave in one `write` when a credit batch is due — or
//! before [`NetSource::next`] sleeps on an empty ring, so a client never
//! waits for a frame that sits in user space. The consumer can hang its own
//! output flush on the same loop ([`NetSource::on_quiet`]).
//!
//! # Telemetry
//!
//! Sessions, credits and ring depth are counted in [`NetMetrics`], the
//! registry series, and nowhere else: the server records no trace, so a
//! networked run's trace is the in-process run's by construction.

use crate::listener::{Listener, SessionCounts, HANDSHAKE_TIMEOUT};
use crate::wire::{self, Frame, FrameReader, WireError, PROTOCOL_VERSION};
use lmerge_core::spsc::{self, Consumer, Producer};
use lmerge_engine::{Source, TimedElement};
use lmerge_obs::{Counter, Gauge, MetricsRegistry};
use lmerge_temporal::{Element, Time, Value};
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// One decoded element in flight between a session thread and the merge.
struct Item {
    seq: u64,
    te: TimedElement<Value>,
}

/// Ingest server sizing.
#[derive(Clone, Copy, Debug)]
pub struct IngestConfig {
    /// Number of inputs (one TCP session each).
    pub inputs: usize,
    /// Slots per input ring — the hard in-flight bound per connection.
    pub ring_capacity: usize,
    /// Credits granted back per batch of pops. Must be smaller than
    /// `ring_capacity` or clients could starve waiting for a grant.
    pub credit_batch: u32,
}

impl IngestConfig {
    /// Defaults: 256-slot rings, credits granted 32 at a time.
    pub fn new(inputs: usize) -> IngestConfig {
        IngestConfig {
            inputs,
            ring_capacity: 256,
            credit_batch: 32,
        }
    }
}

/// Wall-clock telemetry handles for one input's sessions.
struct InputNetMetrics {
    sessions: SessionCounts,
    frames: Counter,
    bytes: Counter,
    credits: Counter,
    ring_full_stalls: Counter,
    checksum_failures: Counter,
    next_seq: Gauge,
    queue_depth: Gauge,
}

/// Per-input live telemetry for an ingest server, pre-registered at bind
/// so session threads only ever touch lock-free handles.
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
                    frames: registry.counter(
                        "lmerge_net_frames_total",
                        "Data frames accepted into the ring, per input.",
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
                    ring_full_stalls: registry.counter(
                        "lmerge_net_ring_full_stalls_total",
                        "Session-thread spin retries on a full ingest ring (credit starvation).",
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
                        "Ingest ring occupancy sampled at each credit grant.",
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

/// Per-input state shared between the accept loop, the active session
/// thread, and the merge-side [`NetSource`].
struct InputShared {
    /// The ring's producer half. A session thread takes it while serving
    /// a connection and hands it back on exit, so a rejoining client can
    /// only stream once its predecessor is gone — one producer, ever.
    producer: Mutex<Option<Producer<Item>>>,
    /// Write half of the live connection, for merge-side `Credit`/`Ack`.
    writer: Mutex<Option<TcpStream>>,
    /// Next data sequence the server will accept (== frames consumed into
    /// the ring so far, since sequences are dense from 0).
    next_seq: AtomicU64,
    /// Raw value of the last stable point popped by the merge side.
    acked_stable: AtomicI64,
    /// Set on a clean `Bye`; tells the `NetSource` the stream is over.
    finished: AtomicBool,
    /// Items the merge side has popped — the checkpoint resume cursor.
    pops: AtomicU64,
}

/// State shared by every thread the server spawns.
struct ServerShared {
    inputs: Vec<InputShared>,
    shutdown: AtomicBool,
    credit_batch: u32,
    metrics: NetMetrics,
}

impl ServerShared {
    /// Write encoded frames to an input's live connection; best-effort
    /// (bytes for a dead connection are dropped and the writer cleared —
    /// the client will learn everything it needs from its next `Welcome`).
    fn write(&self, input: u32, frames: &[u8]) {
        let mut guard = self.inputs[input as usize].writer.lock().unwrap();
        if let Some(w) = guard.as_mut() {
            if w.write_all(frames).is_err() {
                *guard = None;
            }
        }
    }
}

/// A TCP ingest server feeding `inputs` independent element streams.
pub struct IngestServer {
    listener: Listener,
    shared: Arc<ServerShared>,
    consumers: Vec<Option<Consumer<Item>>>,
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
    /// series (sessions, frames, bytes, credits, stalls, corruption) in the
    /// caller's `registry` so a scrape endpoint can expose them live.
    pub fn bind_with_metrics(
        addr: &str,
        config: IngestConfig,
        registry: &MetricsRegistry,
    ) -> io::Result<IngestServer> {
        assert!(
            config.ring_capacity > config.credit_batch as usize,
            "ring_capacity must exceed credit_batch or clients starve"
        );
        let mut inputs = Vec::with_capacity(config.inputs);
        let mut consumers = Vec::with_capacity(config.inputs);
        for _ in 0..config.inputs {
            let (tx, rx) = spsc::ring::<Item>(config.ring_capacity);
            inputs.push(InputShared {
                producer: Mutex::new(Some(tx)),
                writer: Mutex::new(None),
                next_seq: AtomicU64::new(0),
                acked_stable: AtomicI64::new(Time::MIN.0),
                finished: AtomicBool::new(false),
                pops: AtomicU64::new(0),
            });
            consumers.push(Some(rx));
        }
        let shared = Arc::new(ServerShared {
            inputs,
            shutdown: AtomicBool::new(false),
            credit_batch: config.credit_batch,
            metrics: NetMetrics::new(registry, config.inputs),
        });
        let accept_shared = Arc::clone(&shared);
        let listener = Listener::bind(addr, move |stream| {
            let shared = Arc::clone(&accept_shared);
            thread::spawn(move || session(shared, stream));
        })?;
        Ok(IngestServer {
            listener,
            shared,
            consumers,
        })
    }

    /// The bound address (connect clients and proxies here).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// Take the merge-side sources, one per input, in input order. Each
    /// is the single consumer of its input's ring; callable once.
    pub fn sources(&mut self) -> Vec<NetSource> {
        self.consumers
            .iter_mut()
            .enumerate()
            .map(|(i, c)| NetSource {
                input: i as u32,
                consumer: c.take().expect("sources() already taken"),
                shared: Arc::clone(&self.shared),
                since_credit: 0,
                out: Vec::new(),
                on_quiet: None,
            })
            .collect()
    }

    /// Per-input transport resume cursors for a checkpoint: `(frames the
    /// merge side has consumed, last acked stable point)`. The *consumed*
    /// count — not `next_seq` — is the exactly-once resume point: frames
    /// pushed into the ring but never popped die with the process, so a
    /// restarted server must have the client re-send them.
    pub fn cursors(&self) -> Vec<(u64, i64)> {
        self.cursor_handle().cursors()
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
    /// prefix and replays exactly what the restored merge has not seen
    /// (PR 5's resume handshake, driven by recovered state instead of a
    /// surviving process).
    pub fn restore_cursors(&self, cursors: &[(u64, i64)]) {
        for (slot, &(next_seq, acked)) in self.shared.inputs.iter().zip(cursors) {
            slot.next_seq.store(next_seq, Ordering::Release);
            slot.acked_stable.store(acked, Ordering::Release);
        }
    }

    /// Wait (up to `timeout`) for every accepted session to finish its
    /// close handshake; returns `true` once all have. The merge side
    /// completes at watermark = ∞ — which a paced client reaches while
    /// its final `Bye` round trip is still in flight — so a driver that
    /// tears the server down the instant the merge drains would sever
    /// clean closes into lost ones. Call this between merge completion
    /// and [`shutdown`](IngestServer::shutdown).
    pub fn await_sessions_closed(&self, timeout: Duration) -> bool {
        let inputs = self.shared.metrics.inputs.iter();
        SessionCounts::await_closed(inputs.map(|m| &m.sessions), timeout)
    }

    /// Stop accepting, join the accept loop, and sever live sessions.
    pub fn shutdown(&mut self) {
        self.listener.stop();
        self.shared.shutdown.store(true, Ordering::Relaxed);
        for input in &self.shared.inputs {
            if let Some(w) = input.writer.lock().unwrap().as_ref() {
                let _ = w.shutdown(Shutdown::Both);
            }
        }
    }
}

impl Drop for IngestServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Frames a session has pushed to the ring since it last published.
#[derive(Default)]
struct Unpublished {
    frames: u64,
    bytes: u64,
}

impl Unpublished {
    /// Publish the resume point and the counters for everything pushed so
    /// far. `next_seq` moves only here — after the items are in the ring —
    /// so a resume point never names a frame the ring did not take.
    fn publish(&mut self, slot: &InputShared, live: &InputNetMetrics, next_seq: u64) {
        if self.frames == 0 {
            return;
        }
        slot.next_seq.store(next_seq, Ordering::Release);
        live.frames.add(self.frames);
        live.bytes.add(self.bytes);
        live.next_seq.set(next_seq as i64);
        *self = Unpublished::default();
    }
}

/// Serve one connection: handshake, then pump data frames into the ring.
fn session(shared: Arc<ServerShared>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT));
    let mut reader = FrameReader::new(&stream);
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
    let slot = &shared.inputs[input as usize];
    let live = &shared.metrics.inputs[input as usize];

    // Claim the producer. After an unclean disconnect the predecessor
    // session may still be unwinding, so wait a grace period for it to
    // hand the producer back rather than rejecting the rejoin.
    let mut producer = None;
    for _ in 0..4000 {
        if let Some(p) = slot.producer.lock().unwrap().take() {
            producer = Some(p);
            break;
        }
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        thread::sleep(Duration::from_micros(500));
    }
    // The input is still held by a live session: no session for this one.
    let Some(mut producer) = producer else {
        shared.metrics.handshake_drops.inc();
        return;
    };

    let resume_seq = slot.next_seq.load(Ordering::Acquire);
    let welcome = Frame::Welcome {
        input,
        resume_seq,
        resume_stable: Time(slot.acked_stable.load(Ordering::Acquire)),
        credits: (producer.capacity() - producer.len()) as u32,
    };
    if wire::write_frame(&mut &stream, &welcome).is_err() {
        *slot.producer.lock().unwrap() = Some(producer);
        shared.metrics.handshake_drops.inc();
        return;
    }
    let _ = stream.set_read_timeout(None);
    if let Ok(w) = stream.try_clone() {
        *slot.writer.lock().unwrap() = Some(w);
    }
    live.sessions.on_open(resume_seq > 0);

    let mut expected = resume_seq;
    let mut pending = Unpublished::default();
    let clean = 'conn: loop {
        // Hand every whole frame of this refill to the ring; `verdict` is
        // how the session ends, if one of them ends it.
        let verdict = 'refill: loop {
            match reader.next_buffered() {
                Ok(Some((Frame::Data { seq, at, element }, size))) => {
                    if seq < expected {
                        // Duplicate from before the resume point (client
                        // raced a reconnect); exactly-once by dropping here.
                        continue;
                    }
                    if seq > expected {
                        break 'refill Some(false); // gap: protocol violation
                    }
                    let mut item = Item {
                        seq,
                        te: TimedElement::new(at, element),
                    };
                    // Ring full ⇒ spin; TCP flow control does the rest.
                    while let Err(back) = producer.push(item) {
                        item = back;
                        live.ring_full_stalls.inc();
                        if shared.shutdown.load(Ordering::Relaxed) {
                            break 'refill Some(false);
                        }
                        // Never sleep on unpublished frames: the stall
                        // lasts as long as the merge side likes.
                        pending.publish(slot, live, expected);
                        thread::sleep(Duration::from_micros(50));
                    }
                    expected += 1;
                    pending.frames += 1;
                    pending.bytes += size as u64;
                }
                Ok(Some((Frame::Bye, _))) => break 'refill Some(true),
                Ok(Some(_)) => break 'refill Some(false), // wrong frame for this state
                Ok(None) => break 'refill None,
                Err(WireError::Checksum { .. }) => {
                    live.checksum_failures.inc();
                    break 'refill Some(false);
                }
                Err(_) => break 'refill Some(false),
            }
        };
        // Whatever ended the refill, the frames before it are in the ring
        // and count: publish them before anything else can observe the
        // session's end.
        pending.publish(slot, live, expected);
        match verdict {
            Some(true) => {
                // Release ordering pairs with the NetSource's Acquire
                // load: once it sees `finished`, every push is visible.
                slot.finished.store(true, Ordering::Release);
                // Acknowledge the close: through a faulty transport a
                // client's successful *write* of `Bye` does not prove
                // *delivery*, so it only reports a clean session once
                // this echo arrives (and resends the `Bye` otherwise).
                shared.write(input, &wire::encode(&Frame::Bye));
                break 'conn true;
            }
            Some(false) => break 'conn false,
            None => {}
        }
        // EOF without Bye (at a frame boundary or inside a frame): the
        // replica died mid-stream. Leave `finished` unset — the ring keeps
        // what arrived, and the replica may rejoin and resume from
        // `next_seq`.
        if !matches!(reader.fill(), Ok(n) if n > 0) {
            break 'conn false;
        }
    };

    *slot.writer.lock().unwrap() = None;
    *slot.producer.lock().unwrap() = Some(producer);
    live.sessions.on_close(clean);
}

/// A cloneable reader of the server's live per-input resume cursors
/// (see [`IngestServer::cursors`]).
#[derive(Clone)]
pub struct CursorHandle {
    shared: Arc<ServerShared>,
}

impl CursorHandle {
    /// `(popped frames, acked stable)` per input, in input order.
    ///
    /// A pop count includes the frame the executor has staged but not
    /// yet merged; `DurableCheckpointSink` discounts staged frames when
    /// persisting, so checkpointed cursors mean *delivered into the
    /// merge* and a restored server replays the staged frame.
    pub fn cursors(&self) -> Vec<(u64, i64)> {
        self.shared
            .inputs
            .iter()
            .map(|s| {
                (
                    s.pops.load(Ordering::Acquire),
                    s.acked_stable.load(Ordering::Acquire),
                )
            })
            .collect()
    }
}

/// The merge-side end of one ingest ring: an engine [`Source`] that
/// blocks until the connected replica delivers (or finishes), grants
/// credits as it drains, and acks consumed stable points.
pub struct NetSource {
    input: u32,
    consumer: Consumer<Item>,
    shared: Arc<ServerShared>,
    since_credit: u32,
    /// `Ack`/`Credit` frames encoded but not yet written.
    out: Vec<u8>,
    /// The consumer's own output flush, run once the ring has stayed
    /// empty across a poll (see [`NetSource::on_quiet`]).
    on_quiet: Option<Box<dyn FnMut() + Send>>,
}

impl NetSource {
    /// The input id this source feeds.
    pub fn input(&self) -> u32 {
        self.input
    }

    /// Extend the flush-before-block rule to the consumer's output: run
    /// `flush` whenever [`next`](Source::next) finds the ring empty, has
    /// slept one poll interval, and finds it empty still — the input has
    /// gone quiet (so every ~50 µs while idle: it must be free when there
    /// is nothing to flush). The thread that merges is the thread that
    /// sleeps here, so what it emitted must not sit in user space while
    /// it does. Unlike the control frames nothing *waits* on that output,
    /// so it can afford the one poll of grace, which is what keeps a
    /// steady mid-rate feed — a frame or two per poll — from paying a
    /// wake-up and a socket write per poll.
    #[must_use]
    pub fn on_quiet(mut self, flush: impl FnMut() + Send + 'static) -> NetSource {
        self.on_quiet = Some(Box::new(flush));
        self
    }

    fn after_pop(&mut self, item: &Item) {
        let slot = &self.shared.inputs[self.input as usize];
        slot.pops.fetch_add(1, Ordering::Relaxed);
        if let Element::Stable(t) = item.te.element {
            slot.acked_stable.store(t.0, Ordering::Release);
            let ack = Frame::Ack {
                seq: item.seq,
                stable: t,
            };
            wire::encode_into(&ack, &mut self.out);
        }
        self.since_credit += 1;
        if self.since_credit >= self.shared.credit_batch {
            let n = self.since_credit;
            self.since_credit = 0;
            wire::encode_into(&Frame::Credit { n }, &mut self.out);
            self.flush();
            let live = &self.shared.metrics.inputs[self.input as usize];
            live.credits.add(n as u64);
            live.queue_depth.set(self.consumer.len() as i64);
        }
    }

    /// Write the queued control frames, if any, in one `write`.
    fn flush(&mut self) {
        if !self.out.is_empty() {
            self.shared.write(self.input, &self.out);
            self.out.clear();
        }
    }
}

impl Source<Value> for NetSource {
    fn next(&mut self) -> Option<TimedElement<Value>> {
        let mut slept = false;
        loop {
            // Load `finished` BEFORE popping: if the flag was already set
            // and the pop still comes up empty, the Release/Acquire pair
            // guarantees no further item can appear — returning `None` is
            // race-free. (Popping first then checking the flag could miss
            // an item pushed between the two.)
            let finished = self.shared.inputs[self.input as usize]
                .finished
                .load(Ordering::Acquire);
            if let Some(item) = self.consumer.pop() {
                self.after_pop(&item);
                return Some(item.te);
            }
            // Flush before blocking: nothing may sit in user space while
            // this thread sleeps. With an empty ring the client may be
            // waiting on exactly the frames queued here, and the next pop
            // that would flush them may be waiting on the client — a queued
            // grant held back here is a deadlock, a queued ack a stall.
            self.flush();
            if finished || self.shared.shutdown.load(Ordering::Relaxed) {
                return None;
            }
            // Still empty after a sleep: the input has gone quiet, so the
            // consumer's output (the egress buffer) leaves too.
            if let (true, Some(flush)) = (slept, &mut self.on_quiet) {
                flush();
            }
            thread::sleep(Duration::from_micros(50));
            slept = true;
        }
    }

    fn memory_bytes(&self) -> usize {
        // Deliberately 0: the ring is constant-size preallocated transport
        // buffering, not merge state, and its occupancy is already the
        // `lmerge_net_queue_depth` gauge. Reporting it here
        // would shift every `memory_sampled` trace line by a constant and
        // break the byte-identity between networked and in-process runs
        // of the same feeds.
        0
    }
}

/// Errors an ingest client/server interaction can surface to callers.
pub type NetResult<T> = Result<T, WireError>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{replay, ReplayConfig};
    use lmerge_temporal::VTime;

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

    #[test]
    fn the_quiet_hook_runs_once_the_ring_has_stayed_empty_across_a_poll() {
        use std::sync::atomic::AtomicUsize;
        let mut server = IngestServer::bind("127.0.0.1:0", IngestConfig::new(1)).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let hello = Frame::Hello {
            protocol: PROTOCOL_VERSION,
            input: 0,
        };
        wire::write_frame(&mut stream, &hello).unwrap();
        let mut reader = FrameReader::new(stream.try_clone().unwrap());
        assert!(matches!(
            reader.next_frame(),
            Ok(Some(Frame::Welcome { .. }))
        ));
        let sent = feed(5);
        for (i, te) in sent.iter().enumerate() {
            let frame = Frame::Data {
                seq: i as u64,
                at: te.at,
                element: te.element.clone(),
            };
            wire::write_frame(&mut stream, &frame).unwrap();
        }
        let calls = Arc::new(AtomicUsize::new(0));
        let hook = Arc::clone(&calls);
        let mut source = server.sources().remove(0).on_quiet(move || {
            hook.fetch_add(1, Ordering::Relaxed);
        });
        // Frames that are there (or arrive within a poll) cost no call…
        while server.shared.inputs[0].next_seq.load(Ordering::Acquire) < 6 {
            thread::sleep(Duration::from_millis(1));
        }
        for te in &sent {
            assert_eq!(source.next().as_ref(), Some(te));
        }
        assert_eq!(calls.load(Ordering::Relaxed), 0, "the input never paused");
        // …a pause does, on every poll it lasts.
        let blocked = thread::spawn(move || source.next());
        while calls.load(Ordering::Relaxed) < 3 {
            thread::sleep(Duration::from_millis(1));
        }
        wire::write_frame(&mut stream, &Frame::Bye).unwrap();
        assert_eq!(blocked.join().unwrap(), None);
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
        let cursors = server.cursors();
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
}
