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
//! replica move applied to an output replica). A subscriber whose session
//! closed lost and that has not rejoined within [`DEPARTED_GRACE_EPOCHS`]
//! sealed epochs stops pinning too: its cursor is forgotten, and a later
//! resume is demoted the same way. Cursors restored from a checkpoint
//! count as departed from the restore until their subscriber rejoins.
//!
//! # Sessions are served where output is made visible
//!
//! A session owns no thread. A short-lived handshake thread reads the
//! `Subscribe`, writes the `Welcome` and installs the session, non-blocking,
//! in the server's session table. From then on every
//! [`EpochBuffer`] flush — before each wait of the merge thread, at each
//! seal and 32 KiB cut, at `finish` — runs one **serve pass** over the
//! table on the flushing thread. Per session the pass
//!
//! 1. writes the bytes the socket would not take last time, then the
//!    admitted frames from the session's cursor out of the shared chunks,
//!    spending credits, with non-blocking writes; what the socket does
//!    not take is queued in the session, and nothing new is written
//!    behind it;
//! 2. then takes the `Credit`/`Ack`/`Bye` frames that have arrived — when
//!    it just wrote, when the session is out of credits or closing, and
//!    otherwise once per [`EPOCH_POLL`], so idle sessions cost no system
//!    call per wait.
//!
//! A full socket never blocks the pass: its remainder waits for the next
//! pass, at most one wait of the merge thread later. After the stream
//! ends, [`SubServer::await_sessions_closed`] (or
//! [`serve_until`](SubServer::serve_until)) runs the passes, and a session
//! that joins a finished stream is served to its close by its handshake
//! thread, since no flush will come; that thread waits on the session's
//! socket between steps. Every server bound to a buffer is served by its
//! flushes.
//!
//! # Telemetry
//!
//! Like the ingest server, this one accepts on `lmerge_net`'s shared
//! listener and accounts for its sessions in the registry only
//! ([`SubMetrics`]): it records no trace.

use crate::buffer::{Chunk, ChunkAt, EpochBuffer, SubFilter};
use lmerge_net::listener::{Listener, SessionCounts, HANDSHAKE_TIMEOUT};
use lmerge_net::server::wait;
use lmerge_net::wire::{self, Frame, FrameReader, PROTOCOL_VERSION};
use lmerge_obs::{Counter, Gauge, MetricsRegistry};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
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

/// How often a serve pass reads an idle session's socket — one with
/// credits in hand, nothing just written and no close under way — for the
/// `Credit`/`Ack`/`Bye` frames its subscriber may have sent. It bounds how
/// late an idle subscriber's unsubscribe or ack is taken.
const EPOCH_POLL: Duration = Duration::from_millis(50);

/// How long a closing session waits after last hearing *anything* from its
/// subscriber before presuming it dead. A session closes once the stream
/// has finished (it owes the subscriber its tail and a `Bye`, then waits
/// for the echo) or once the subscriber said `Bye`. A subscriber that
/// vanishes outright is caught much sooner (its socket errors); this only
/// bounds the silent-hang case, so generous is safe.
const BYE_IDLE_TIMEOUT: Duration = Duration::from_secs(10);

/// Sealed epochs a subscriber whose session closed lost may take to rejoin
/// before its durable cursor is forgotten and stops pinning retention. So
/// a departed subscriber holds back at most this many epochs of output;
/// one that rejoins later resumes from the horizon, demoted.
pub const DEPARTED_GRACE_EPOCHS: u64 = 256;

/// State shared by the handshake threads and whoever runs serve passes.
pub(crate) struct SubShared {
    buf: Arc<EpochBuffer>,
    filters: Vec<SubFilter>,
    shutdown: AtomicBool,
    metrics: SubMetrics,
    registry: MetricsRegistry,
    table: Mutex<SessionTable>,
}

/// The installed sessions and what the passes remember between them.
struct SessionTable {
    sessions: Vec<Session>,
    /// Subscribers whose last session closed lost (or whose cursor came
    /// back from a checkpoint), with the sealed-epoch count at that time.
    departed: Vec<(u64, u64)>,
    /// The buffer's flush count the gauges last showed.
    seen_flushes: u64,
}

impl SubShared {
    /// The session table. Each session's state is changed only by its own
    /// step, which does not unwind, and a session leaves the table before
    /// it is counted closed: a poisoned table holds whole sessions.
    fn table(&self) -> MutexGuard<'_, SessionTable> {
        self.table.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// One serve pass over the installed sessions, on the calling thread.
    pub(crate) fn serve(&self) {
        let mut table = self.table();
        let now = Instant::now();
        let mut i = 0;
        while i < table.sessions.len() {
            match table.sessions[i].step(self, now) {
                None => i += 1,
                Some(clean) => {
                    let session = table.sessions.swap_remove(i);
                    self.close(&mut table, session, clean);
                }
            }
        }
        let flushes = self.buf.flushes();
        if flushes != table.seen_flushes {
            table.seen_flushes = flushes;
            self.after_flush(&mut table);
        }
        // Acks retire epochs between flushes too.
        let retained = self.buf.retained() as i64;
        self.metrics.epochs_retained.set(retained);
    }

    /// Mirror a flush into the gauges, and forget the departed subscribers
    /// whose grace ran out.
    fn after_flush(&self, table: &mut SessionTable) {
        let m = &self.metrics;
        m.flushes.raise_to(table.seen_flushes);
        let (next_seq, _, sealed, _) = self.buf.stats();
        m.next_seq.set(next_seq as i64);
        table.departed.retain(|&(subscriber, at)| {
            let gone = sealed.saturating_sub(at) >= DEPARTED_GRACE_EPOCHS;
            if gone {
                self.buf.forget(subscriber);
            }
            !gone
        });
    }

    /// Count a session's end, after its socket is closed. A lost session
    /// starts its subscriber's grace, unless another session serves it.
    fn close(&self, table: &mut SessionTable, session: Session, clean: bool) {
        let subscriber = session.subscriber;
        drop(session);
        if !clean && !table.sessions.iter().any(|s| s.subscriber == subscriber) {
            let sealed = self.buf.stats().2;
            table.departed.retain(|&(id, _)| id != subscriber);
            table.departed.push((subscriber, sealed));
        }
        self.metrics.sessions_active.add(-1);
        self.metrics.sessions.on_close(clean);
    }
}

/// A session's socket died: EOF, a frame that makes no sense here,
/// corruption, an i/o error.
struct Dead;

/// One subscriber: its socket, its place in the stream, and what it has
/// said. It owns no thread; serve passes step it.
struct Session {
    reader: FrameReader<TcpStream>,
    subscriber: u64,
    class: u32,
    /// Next output sequence to consider for delivery.
    cursor: u64,
    credits: u64,
    /// Bytes the socket would not take, written first on the next pass;
    /// nothing new is written while they wait.
    queued: Vec<u8>,
    /// Out of credits with an admitted frame waiting (one stall counted).
    stalled: bool,
    /// The last frame the server will send (`Bye`) is queued or written.
    bye_sent: bool,
    /// The subscriber sent `Bye` (unsubscribe, or echo of ours).
    bye_heard: bool,
    /// When a frame last arrived from the subscriber — the liveness signal
    /// a closing session waits on. A wide fan-out can park the whole stream
    /// in socket buffers, so "no echo yet" says nothing; "no frame for a
    /// long quiet period" does.
    last_heard: Instant,
    /// When an idle session next reads its socket.
    next_read: Instant,
    /// When this session began to close (the stream finished, or the
    /// subscriber said `Bye`).
    closing_since: Option<Instant>,
    metrics: SessionMetrics,
}

impl Session {
    /// One step of a serve pass: write, then hear. `Some(clean)` when the
    /// session is over.
    fn step(&mut self, shared: &SubShared, now: Instant) -> Option<bool> {
        if shared.shutdown.load(Ordering::Relaxed) {
            return Some(false);
        }
        match self.try_step(shared, now) {
            Ok(over) => over,
            Err(Dead) => Some(false),
        }
    }

    fn try_step(&mut self, shared: &SubShared, now: Instant) -> Result<Option<bool>, Dead> {
        if self.closing_since.is_none() && shared.buf.finished() {
            self.closing_since = Some(now);
        }
        let wrote = self.write(shared)?;
        if wrote || self.credits == 0 || self.closing_since.is_some() || now >= self.next_read {
            self.next_read = now + EPOCH_POLL;
            let out_of_credits = self.credits == 0;
            self.hear(&shared.buf, now)?;
            if self.bye_heard && !self.bye_sent {
                // Unsolicited unsubscribe: acknowledge, and part cleanly
                // once the echo is out.
                self.closing_since.get_or_insert(now);
                wire::encode_into(&Frame::Bye, &mut self.queued);
                self.bye_sent = true;
                self.write(shared)?;
            } else if out_of_credits && self.credits > 0 {
                // A grant lifted the stall: spend it in this pass.
                self.write(shared)?;
            }
        }
        if self.bye_heard && self.queued.is_empty() {
            return Ok(Some(true));
        }
        // The wait for the echo is bounded by *idle time*, not time since
        // the `Bye`: under a wide fan-out the whole stream (Bye included)
        // lands in socket buffers long before a starved-but-live
        // subscriber drains it, and its acks and grants prove it is making
        // progress. A fixed deadline would sever such sessions mid-drain.
        match self.closing_since {
            Some(since) if now.duration_since(self.last_heard.max(since)) >= BYE_IDLE_TIMEOUT => {
                Ok(Some(false))
            }
            _ => Ok(None),
        }
    }

    /// Write what is queued, then — with nothing left queued and no `Bye`
    /// sent — the admitted frames from the cursor on, as far as credits and
    /// the socket allow; at the end of the stream, the `Bye`. Whether any
    /// byte left.
    fn write(&mut self, shared: &SubShared) -> Result<bool, Dead> {
        let mut wrote = false;
        if !self.queued.is_empty() {
            let n = write_some(self.reader.get_ref(), &self.queued)?;
            self.queued.drain(..n);
            wrote = n > 0;
        }
        while self.queued.is_empty() && !self.bye_sent {
            // The lock-free look: an idle session costs no buffer lock.
            if !shared.buf.news_at(self.cursor) {
                break;
            }
            let frame = match shared.buf.chunk_at(self.cursor) {
                ChunkAt::Pending => break,
                ChunkAt::Ready {
                    chunk,
                    seal,
                    sealed,
                } => {
                    wrote |= self.deliver(shared, &chunk)?;
                    if self.cursor < chunk.end_seq() {
                        break;
                    }
                    if let Some(seal) = seal {
                        let lag = sealed.saturating_sub(seal.index);
                        self.metrics.lag_epochs.set(lag as i64);
                    }
                    continue;
                }
                ChunkAt::Compacted { resume_seq, stable } => {
                    // Demotion: the epoch this session wanted was retired.
                    // Jump to the horizon and re-welcome so the subscriber
                    // knows it is catching up from `stable`, not resuming.
                    shared.metrics.demotions.inc();
                    self.cursor = resume_seq;
                    shared.buf.ack(self.subscriber, resume_seq);
                    Frame::Welcome {
                        input: self.class,
                        resume_seq,
                        resume_stable: stable,
                        credits: 0,
                    }
                }
                ChunkAt::Finished => {
                    // Stream over: start the close handshake.
                    self.bye_sent = true;
                    Frame::Bye
                }
            };
            let bytes = wire::encode(&frame);
            let n = write_some(self.reader.get_ref(), &bytes)?;
            self.queued.extend_from_slice(&bytes[n..]);
            wrote |= n > 0;
        }
        Ok(wrote)
    }

    /// Write `chunk`'s admitted frames from the cursor on, one credit each,
    /// each contiguous run of them in one `write` out of the shared bytes;
    /// queue what the socket does not take and stop there. Stops at a
    /// frame it has no credit for, counting the stall. Whether any byte
    /// left.
    fn deliver(&mut self, shared: &SubShared, chunk: &Chunk) -> Result<bool, Dead> {
        // The whole-stream class admits every frame: no bitmap to build, per
        // chunk, for the class nearly every session is in.
        let filter = &shared.filters[self.class as usize];
        let bits = (*filter != SubFilter::All).then(|| chunk.bitmap(self.class, filter));
        let admitted = |i: usize| bits.as_ref().is_none_or(|b| Chunk::admitted(b, i));
        let base = chunk.base_seq;
        let mut i = self.cursor.saturating_sub(base) as usize;
        let (mut frames, mut bytes, mut wrote) = (0u64, 0u64, false);
        while i < chunk.frames() && self.queued.is_empty() {
            if !admitted(i) {
                i += 1;
                continue;
            }
            if self.credits == 0 {
                if !self.stalled {
                    self.stalled = true;
                    shared.metrics.credit_stalls.inc();
                }
                break;
            }
            self.stalled = false;
            let start = i;
            while i < chunk.frames() && self.credits > 0 && admitted(i) {
                self.credits -= 1;
                i += 1;
            }
            let run = chunk.span(start..i);
            let n = write_some(self.reader.get_ref(), run)?;
            self.queued.extend_from_slice(&run[n..]);
            wrote |= n > 0;
            frames += (i - start) as u64;
            bytes += run.len() as u64;
        }
        self.cursor = base + i as u64;
        self.metrics.frames.add(frames);
        self.metrics.bytes.add(bytes);
        Ok(wrote)
    }

    /// Take the frames that have arrived. The highest `Ack` among them
    /// advances the subscriber's durable cursor (pins retention, persists
    /// via checkpoints). Nothing is read after a `Bye`.
    /// The acks before a fatal frame still count.
    fn hear(&mut self, buf: &EpochBuffer, now: Instant) -> Result<(), Dead> {
        let mut acked = None;
        let mut heard = Ok(());
        while !self.bye_heard {
            let frame = match self.reader.next_arrived() {
                Ok(Some(frame)) => frame,
                Ok(None) => break,
                Err(_) => {
                    heard = Err(Dead);
                    break;
                }
            };
            self.last_heard = now;
            match frame {
                Frame::Credit { n } => self.credits += u64::from(n),
                Frame::Ack { seq, .. } => acked = acked.max(Some(seq.saturating_add(1))),
                Frame::Bye => self.bye_heard = true,
                _ => {
                    heard = Err(Dead);
                    break;
                }
            }
        }
        if let Some(seq) = acked {
            buf.ack(self.subscriber, seq);
        }
        heard
    }

    /// Block, for at most the socket's timeouts, until the subscriber has
    /// sent something or — with bytes queued — until the socket takes some
    /// of them. Only a session's own thread waits so, never a serve pass.
    /// `Some(false)` when the socket died.
    fn wait_socket(&mut self) -> Option<bool> {
        let mut socket = self.reader.get_ref();
        if socket.set_nonblocking(false).is_err() {
            return Some(false);
        }
        let waited = if self.queued.is_empty() {
            // A partial frame in the reader's buffer does not count: its
            // rest is what arrives on the socket.
            socket.peek(&mut [0u8]).map(drop)
        } else {
            socket
                .write(&self.queued)
                .map(|n| drop(self.queued.drain(..n)))
        };
        if socket.set_nonblocking(true).is_err() {
            return Some(false);
        }
        use io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
        match waited {
            Err(e) if !matches!(e.kind(), WouldBlock | TimedOut | Interrupted) => Some(false),
            _ => None,
        }
    }
}

/// Write as much of `bytes` as the non-blocking socket takes now; how much.
fn write_some(mut socket: &TcpStream, bytes: &[u8]) -> Result<usize, Dead> {
    let mut n = 0;
    while n < bytes.len() {
        match socket.write(&bytes[n..]) {
            Ok(0) => return Err(Dead),
            Ok(k) => n += k,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Err(Dead),
        }
    }
    Ok(n)
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
    /// series in the caller's `registry`. From now on every flush of `buf`
    /// serves this server's sessions, beside those of any other server
    /// bound to it. A config with no filter class is `InvalidInput`.
    pub fn bind_with_metrics(
        addr: &str,
        buf: Arc<EpochBuffer>,
        config: SubConfig,
        registry: &MetricsRegistry,
    ) -> io::Result<SubServer> {
        if config.filters.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "at least one filter class",
            ));
        }
        // Restored cursors pin retention only as long as a live subscriber
        // would: their subscribers have departed until they rejoin.
        let sealed = buf.stats().2;
        let departed = buf.cursors().iter().map(|&(id, _)| (id, sealed)).collect();
        let shared = Arc::new(SubShared {
            buf,
            filters: config.filters,
            shutdown: AtomicBool::new(false),
            metrics: SubMetrics::new(registry),
            registry: registry.clone(),
            table: Mutex::new(SessionTable {
                sessions: Vec::new(),
                departed,
                seen_flushes: 0,
            }),
        });
        shared.buf.attach(Arc::downgrade(&shared));
        let accept_shared = Arc::clone(&shared);
        let listener = Listener::bind(addr, move |stream| {
            let shared = Arc::clone(&accept_shared);
            thread::spawn(move || handshake(&shared, stream));
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

    /// Run a serve pass once per wait of the merge thread until `done()`
    /// holds. Passes run at every flush of the buffer; a caller whose
    /// publisher has stopped — after the merge, or in a test — runs them
    /// here so the sessions still take their subscribers' grants and
    /// close handshakes.
    pub fn serve_until(&self, mut done: impl FnMut() -> bool) {
        loop {
            self.shared.serve();
            if done() {
                return;
            }
            wait();
        }
    }

    /// [`serve_until`](SubServer::serve_until) every accepted session has
    /// finished its close handshake, or `timeout` passes; `true` once all
    /// have. Call between publishing `finish()` and
    /// [`shutdown`](SubServer::shutdown) so paced subscribers' final `Bye`
    /// round trips are not severed.
    pub fn await_sessions_closed(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let sessions = &self.shared.metrics.sessions;
        self.serve_until(|| sessions.all_closed() || Instant::now() >= deadline);
        sessions.all_closed()
    }

    /// Stop accepting, join the accept loop, and close every open session
    /// as lost. A session its handshake thread serves notices at its next
    /// step, within one [`EPOCH_POLL`].
    pub fn shutdown(&mut self) {
        self.listener.stop();
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.shared.serve();
    }
}

impl Drop for SubServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Open one subscriber's session and install it for the serve passes. Runs
/// on a thread of its own, which exits once the session is installed — or,
/// when the stream has already finished and no flush will run another
/// pass, once it has served the session to its close.
fn handshake(shared: &SubShared, stream: TcpStream) {
    if let Some(welcomed) = welcome(shared, stream) {
        install(shared, welcomed);
    }
}

/// A session that has been sent its `Welcome` and is not yet installed.
struct Welcomed {
    session: Session,
    /// The subscriber asked to resume (a `resume_from` past 0).
    resumed: bool,
}

/// Read the `Subscribe`, clamp the cursor and answer `Welcome`; `None`
/// (a handshake drop) when there is no session to open.
fn welcome(shared: &SubShared, stream: TcpStream) -> Option<Welcomed> {
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
            return None;
        }
    };

    // Clamp the requested cursor into what exists: up to the compaction
    // horizon (a demoted/stale cursor resumes from stable), down to the
    // tail (a cursor from the future is a protocol lie, not a crash).
    let (_, horizon_seq, compact_stable) = shared.buf.horizon();
    let (tail_seq, _, _, _) = shared.buf.stats();
    let resume_seq = resume_from.clamp(horizon_seq, tail_seq.max(horizon_seq));
    let welcome = Frame::Welcome {
        input: class,
        resume_seq,
        resume_stable: compact_stable,
        credits: initial_credits,
    };
    let m = &shared.metrics;
    let mut stream = reader.get_ref();
    if wire::write_frame(&mut stream, &welcome).is_err() || stream.set_nonblocking(true).is_err() {
        m.handshake_drops.inc();
        return None;
    }
    if resume_from < horizon_seq {
        m.demotions.inc();
    }
    let now = Instant::now();
    let session = Session {
        reader,
        subscriber,
        class,
        cursor: resume_seq,
        credits: u64::from(initial_credits),
        queued: Vec::new(),
        stalled: false,
        bye_sent: false,
        bye_heard: false,
        last_heard: now,
        next_read: now,
        closing_since: None,
        metrics: SessionMetrics::new(&shared.registry, subscriber),
    };
    Some(Welcomed {
        session,
        resumed: resume_from > 0,
    })
}

/// Pin the welcomed session's position, count it open, and put it in the
/// session table with one first step; or, when the stream has already
/// finished, serve it here to its close.
fn install(shared: &SubShared, welcomed: Welcomed) {
    let Welcomed {
        mut session,
        resumed,
    } = welcomed;
    let m = &shared.metrics;
    {
        // All under the table lock, so a flush either ran its pass before
        // this first step (which then sees what it flushed) or runs it after
        // the session is in the table; and a session counted open is
        // installed.
        let mut table = shared.table();
        m.sessions.on_open(resumed);
        m.sessions_active.add(1);
        // The subscriber is back: no pass may forget its cursor from here
        // on. Then pin retention from the session's position so its window
        // survives until it acks (the durable cursor is monotone, so a
        // rejoin with an older clamped cursor cannot move it backwards). A
        // grace that ran out since the clamp already forgot the old cursor;
        // this pin makes it anew.
        table.departed.retain(|&(id, _)| id != session.subscriber);
        shared.buf.ack(session.subscriber, session.cursor);
        if !shared.buf.finished() {
            match session.step(shared, Instant::now()) {
                None => table.sessions.push(session),
                Some(clean) => shared.close(&mut table, session, clean),
            }
            return;
        }
    }
    // No flush will come: this thread serves the session, waiting on its
    // socket between steps rather than on a clock.
    let _ = session.reader.get_ref().set_read_timeout(Some(EPOCH_POLL));
    let _ = session.reader.get_ref().set_write_timeout(Some(EPOCH_POLL));
    loop {
        let over = match session.step(shared, Instant::now()) {
            None => session.wait_socket(),
            over => over,
        };
        if let Some(clean) = over {
            shared.close(&mut shared.table(), session, clean);
            return;
        }
    }
}

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
        // The publisher has stopped: the grants are taken by passes run here.
        server.await_sessions_closed(Duration::from_secs(5));
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
                // An idle flush runs the pass that reads the ack.
                buf.flush();
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
        // Nothing is published: the idle session reads its socket once per
        // `EPOCH_POLL` of passes, and still hears the `Bye`.
        let asked = Instant::now();
        wire::write_frame(&mut stream, &Frame::Bye).unwrap();
        server.await_sessions_closed(Duration::from_secs(1));
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

    /// Publish `n` epochs of one insert each, every one sealed by a stable
    /// past the buffer's.
    fn seal_epochs(buf: &EpochBuffer, n: u64) {
        let Time(stable) = buf.stats().1.max(Time(0));
        for i in 1..=n as i64 {
            let t = stable + i;
            buf.publish(
                VTime(t as u64),
                &[
                    Element::insert(Value::bare(1), t, t + 5),
                    Element::stable(Time(t)),
                ],
            );
        }
    }

    /// Open a session by hand at `resume_from`, with a window no test's
    /// stream exhausts; read the `Welcome` and wait until the session is
    /// installed. Returns the socket and the welcomed `resume_seq`.
    fn raw_session(
        server: &SubServer,
        registry: &MetricsRegistry,
        id: u64,
        resume_from: u64,
    ) -> (TcpStream, u64) {
        let opened = registry
            .sum_value("lmerge_sub_sessions_opened_total")
            .unwrap_or(0.0);
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let subscribe = Frame::Subscribe {
            protocol: PROTOCOL_VERSION,
            subscriber: id,
            filter: 0,
            resume_from,
            credits: 1 << 20,
        };
        wire::write_frame(&mut stream, &subscribe).unwrap();
        let Ok(Some(Frame::Welcome { resume_seq, .. })) = wire::read_frame(&mut stream) else {
            panic!("no Welcome");
        };
        await_opened(registry, opened + 1.0);
        (stream, resume_seq)
    }

    /// The serve pass runs on the flushing thread: when `flush` returns,
    /// the frames it made visible are already in the subscriber's socket.
    #[test]
    fn the_frames_are_in_the_socket_when_flush_returns() {
        use std::io::Read;
        let buf = Arc::new(EpochBuffer::new(SubPolicy::default()));
        let registry = MetricsRegistry::new();
        let server = SubServer::bind_with_metrics(
            "127.0.0.1:0",
            Arc::clone(&buf),
            SubConfig::new(),
            &registry,
        )
        .unwrap();
        let (stream, _) = raw_session(&server, &registry, 1, 0);
        stream.set_nonblocking(true).unwrap();
        for round in 0..20 {
            let reference = publish_inserts(&buf, round * 3, 3);
            buf.flush();
            let mut got = vec![0u8; reference.len() + 64];
            let n = (&stream).read(&mut got).expect("the frames are there");
            assert_eq!(&got[..n], &reference[..], "round {round}");
        }
    }

    /// A subscriber that acked and then vanished pins retention for
    /// `DEPARTED_GRACE_EPOCHS` sealed epochs, not for ever: retention
    /// follows the subscriber that stayed. When the departed one comes back
    /// after that, it is caught up from the horizon.
    #[test]
    fn a_departed_subscriber_stops_pinning_retention_after_the_grace() {
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
        let stays = {
            let addr = addr.clone();
            thread::spawn(move || subscribe(&addr, &SubscribeConfig::new(1)).expect("subscribe"))
        };
        // This one acks the first epoch's stable (seq 1), then dies.
        let leaves = {
            let addr = addr.clone();
            thread::spawn(move || {
                subscribe(&addr, &SubscribeConfig::new(5).with_kill_after(2)).expect("subscribe")
            })
        };
        await_opened(&registry, 2.0);
        publish_feed(&buf, 1);
        assert_eq!(leaves.join().unwrap().received, 2);
        let lost = || registry.sum_value("lmerge_sub_session_closes_lost_total");
        server.serve_until(|| lost() == Some(1.0));
        assert!(buf.cursors().contains(&(5, 2)), "its ack pins retention");

        seal_epochs(&buf, 3 * DEPARTED_GRACE_EPOCHS);
        let tail = buf.stats().0;
        server.serve_until(|| buf.cursors().contains(&(1, tail)));
        let (_, _, sealed, retained) = buf.stats();
        assert_eq!(sealed, 3 * DEPARTED_GRACE_EPOCHS + 1);
        assert!(
            retained <= DEPARTED_GRACE_EPOCHS + 1,
            "a departed subscriber pins {retained} epochs"
        );
        assert_eq!(
            registry.sum_value("lmerge_sub_epochs_retained"),
            Some(retained as f64)
        );
        assert_eq!(buf.cursors(), vec![(1, tail)], "its cursor is forgotten");

        // Its resume degrades to catch-up from the horizon.
        buf.finish();
        let back = subscribe(&addr, &SubscribeConfig::new(5).with_resume_from(2)).unwrap();
        assert!(back.clean && back.finished);
        assert!(back.resumed_from > 2, "demoted to the horizon");
        assert_eq!(registry.sum_value("lmerge_sub_demotions_total"), Some(1.0));
        assert!(server.await_sessions_closed(Duration::from_secs(5)));
        assert!(stays.join().unwrap().clean);
    }

    /// A cursor restored from a checkpoint whose subscriber never rejoins
    /// counts as departed from the restore; one that rejoins keeps its pin.
    #[test]
    fn restored_cursors_of_subscribers_that_never_rejoin_stop_pinning() {
        let before = EpochBuffer::new(SubPolicy::default());
        publish_feed(&before, 2);
        before.ack(6, 2);
        before.ack(7, 2);
        let buf = Arc::new(EpochBuffer::restore(&before.image(), SubPolicy::default()).unwrap());
        let registry = MetricsRegistry::new();
        let server = SubServer::bind_with_metrics(
            "127.0.0.1:0",
            Arc::clone(&buf),
            SubConfig::new(),
            &registry,
        )
        .unwrap();
        // Subscriber 7 rejoins at its cursor and stops reading; 6 never does.
        let (_seven, welcomed) = raw_session(&server, &registry, 7, 2);
        assert_eq!(welcomed, 2);
        seal_epochs(&buf, DEPARTED_GRACE_EPOCHS);
        assert_eq!(buf.cursors(), vec![(7, 2)]);
    }

    /// A departed subscriber whose grace runs out after its `Subscribe` was
    /// welcomed but before its session is installed still leaves with a
    /// pinned cursor: the install removes it from the departed and pins
    /// under one lock.
    #[test]
    fn a_grace_that_runs_out_during_a_rejoin_leaves_the_rejoined_cursor() {
        let before = EpochBuffer::new(SubPolicy::default());
        publish_feed(&before, 2);
        before.ack(6, 2);
        let buf = Arc::new(EpochBuffer::restore(&before.image(), SubPolicy::default()).unwrap());
        let server = SubServer::bind("127.0.0.1:0", Arc::clone(&buf), SubConfig::new()).unwrap();
        // Subscriber 6 comes back: its `Subscribe` is read, clamped and
        // welcomed...
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let subscribe = Frame::Subscribe {
            protocol: PROTOCOL_VERSION,
            subscriber: 6,
            filter: 0,
            resume_from: 2,
            credits: 1 << 20,
        };
        wire::write_frame(&mut client, &subscribe).unwrap();
        let welcomed = welcome(&server.shared, stream).expect("welcomed");
        assert!(matches!(
            wire::read_frame(&mut client),
            Ok(Some(Frame::Welcome { resume_seq: 2, .. }))
        ));
        // ...and its grace runs out before the session is installed.
        seal_epochs(&buf, DEPARTED_GRACE_EPOCHS);
        assert!(buf.cursors().is_empty(), "the grace ran out");
        install(&server.shared, welcomed);
        assert!(
            buf.cursors().iter().any(|&(id, _)| id == 6),
            "the rejoined session pins retention"
        );
        assert_eq!(server.shared.table().sessions.len(), 1);
    }

    /// Every server bound to a buffer is served by its flushes.
    #[test]
    fn two_servers_on_one_buffer_both_serve_their_subscribers() {
        let buf = Arc::new(EpochBuffer::new(SubPolicy::default()));
        let registry = MetricsRegistry::new();
        let servers: Vec<SubServer> = (0..2)
            .map(|_| {
                let bound = SubServer::bind_with_metrics(
                    "127.0.0.1:0",
                    Arc::clone(&buf),
                    SubConfig::new(),
                    &registry,
                );
                bound.unwrap()
            })
            .collect();
        let (done, outcomes) = std::sync::mpsc::channel();
        for (i, server) in servers.iter().enumerate() {
            let (addr, done) = (server.local_addr().to_string(), done.clone());
            thread::spawn(move || {
                let _ = done.send(subscribe(&addr, &SubscribeConfig::new(i as u64)));
            });
        }
        await_opened(&registry, 2.0);
        let reference = publish_feed(&buf, 20);
        buf.finish();
        for _ in &servers {
            // A server no flush serves would leave its subscriber waiting.
            let outcome = outcomes.recv_timeout(Duration::from_secs(5));
            let outcome = outcome.expect("both subscribers finish").unwrap();
            assert!(outcome.clean && outcome.finished);
            assert_eq!(outcome.bytes, reference);
        }
    }

    /// A session that joins a finished stream is served by its handshake
    /// thread, which waits on the socket: each grant is taken as it
    /// arrives, not at the next tick of a clock.
    #[test]
    fn a_join_after_finish_takes_each_grant_as_it_arrives() {
        let buf = Arc::new(EpochBuffer::new(SubPolicy::default()));
        let server = SubServer::bind("127.0.0.1:0", Arc::clone(&buf), SubConfig::new()).unwrap();
        let reference = publish_feed(&buf, 200);
        buf.finish();
        let addr = server.local_addr().to_string();
        let started = Instant::now();
        let outcome = subscribe(&addr, &SubscribeConfig::new(2).with_credits(2)).unwrap();
        assert!(outcome.clean && outcome.finished);
        assert_eq!(outcome.bytes, reference);
        // 400 frames in 2-credit windows: 200 grants, 10 s at one
        // `EPOCH_POLL` each.
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "{:?} for 200 grants",
            started.elapsed()
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
