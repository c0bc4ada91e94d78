//! The broadcast buffer: merge output written once, fanned out to N
//! subscribers with zero per-subscriber copies.
//!
//! The merge's output hook ([`crate::OutputHook`]) publishes every emitted
//! element into a publisher-private *tail*, wire-encoding it exactly once
//! (with the same global output sequence the hook's `--out` file carries). A
//! [`flush`](EpochBuffer::flush) freezes the tail into an immutable,
//! refcounted [`Chunk`] — the decoded elements, their encoded `Data`
//! frames, and lazily built filter bitmaps — and wakes parked sessions:
//! the chunk is the unit of *visibility*. Sessions share chunks by `Arc`:
//! delivery is a ranged `write_all` out of the shared byte block, so the
//! per-subscriber cost is a socket write, not a re-serialization.
//!
//! Each advance of the output stable point *seals* the open epoch: the
//! tail is flushed and a [`Seal`] marker (`index`, `stable`, `end_seq`)
//! is stamped behind its last chunk. The epoch is the unit of
//! *bookkeeping* — resume/ack granularity, compaction,
//! [`SubPolicy::max_lag_epochs`], checkpoint images — not a delivery
//! gate: deltas stream as they are flushed, and the stable advance is
//! the transaction boundary (the DBSP delivery model), so a subscriber's
//! latency is the pipeline's, not the wait for punctuation.
//!
//! Who flushes: a seal, [`finish`](EpochBuffer::finish),
//! [`restore`](EpochBuffer::restore), a tail that reached
//! [`CHUNK_BYTES`], and whoever drives the publisher when its input has
//! gone quiet (`lmerge-ingest` hooks it to `NetSource::on_quiet`).
//! Wake-ups are therefore per refill, not per frame, and a publisher
//! whose input never pauses delivers once per seal or reader refill.
//!
//! # Compaction
//!
//! Every subscriber owns a durable cursor (its acked next output
//! sequence). Epochs wholly below the minimum cursor are retired; a
//! subscriber whose cursor lags more than [`SubPolicy::max_lag_epochs`]
//! epochs behind the tail stops pinning retention (the slow-subscriber
//! demotion mirror of `RobustnessPolicy`) and will be caught up from the
//! compaction horizon when it next reads. The horizon — first retained
//! epoch, its base sequence, the stable point the retired prefix reached
//! — is what a stale `resume_from` is clamped up to.
//!
//! # Durability
//!
//! [`EpochBuffer::image`] snapshots the retained frames into an
//! [`EgressImage`] (already wire bytes, so the durable layer stores them
//! verbatim): the flushed chunks by `Arc`, as they are shared with the
//! sessions, and a copy of the unflushed tail only; [`EpochBuffer::restore`]
//! decodes one back, re-sealing epochs at the same stable advances and
//! flushing the re-opened remainder. Because the publisher runs on the
//! executor thread, an image polled at a checkpoint cut is exactly
//! consistent with the merge image saved beside it.

use lmerge_engine::{EgressImage, FrameRun};
use lmerge_net::wire::{self, Frame, WireError};
use lmerge_temporal::{Element, Time, VTime, Value};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// A subscriber's per-session predicate over the merged stream. Stable
/// punctuations always pass: every subscriber sees the full progress
/// signal, whatever slice of the data it takes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubFilter {
    /// The whole stream.
    All,
    /// Keys `k` with `k mod modulus == residue` (Euclidean, so negative
    /// keys land in `0..modulus`).
    KeyMod {
        /// The modulus (0 admits everything).
        modulus: u32,
        /// The residue class to keep.
        residue: u32,
    },
    /// Keys in `min..=max`.
    KeyRange {
        /// Smallest admitted key.
        min: i32,
        /// Largest admitted key.
        max: i32,
    },
}

impl SubFilter {
    /// Whether the filter admits `e`. Punctuation is always admitted.
    pub fn admits(&self, e: &Element<Value>) -> bool {
        let key = match e {
            Element::Insert(ev) => ev.payload.key,
            Element::Adjust { payload, .. } => payload.key,
            Element::Stable(_) => return true,
        };
        match *self {
            SubFilter::All => true,
            SubFilter::KeyMod { modulus, residue } => {
                // In i64: `modulus as i32` wraps from 2^31 up, and
                // `i32::MIN.rem_euclid(-1)` panics.
                modulus == 0 || (key as i64).rem_euclid(modulus as i64) as u32 == residue
            }
            SubFilter::KeyRange { min, max } => (min..=max).contains(&key),
        }
    }

    /// Parse `all`, `mod:M:R` (with `R < M`, or `M` = 0), or `range:LO:HI`
    /// (the bins' flag syntax).
    pub fn parse(s: &str) -> Option<SubFilter> {
        if s == "all" {
            return Some(SubFilter::All);
        }
        let mut parts = s.split(':');
        match (parts.next()?, parts.next(), parts.next(), parts.next()) {
            ("mod", Some(m), Some(r), None) => {
                let (modulus, residue): (u32, u32) = (m.parse().ok()?, r.parse().ok()?);
                // A residue no key can have selects nothing: a typo, not a class.
                (modulus == 0 || residue < modulus)
                    .then_some(SubFilter::KeyMod { modulus, residue })
            }
            ("range", Some(lo), Some(hi), None) => Some(SubFilter::KeyRange {
                min: lo.parse().ok()?,
                max: hi.parse().ok()?,
            }),
            _ => None,
        }
    }
}

impl std::fmt::Display for SubFilter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubFilter::All => write!(f, "all"),
            SubFilter::KeyMod { modulus, residue } => write!(f, "mod:{modulus}:{residue}"),
            SubFilter::KeyRange { min, max } => write!(f, "range:{min}:{max}"),
        }
    }
}

/// A tail that reaches this many encoded bytes is flushed from inside
/// `publish` — one refill of a subscriber's frame reader, the size at
/// which the replayer flushes its sends too. It bounds what a publisher
/// whose input never pauses holds back, and a chunk's `(u32, u32)` offsets
/// cannot wrap however long punctuation stalls (a chunk is at most this
/// plus one frame).
pub const CHUNK_BYTES: usize = wire::READ_BUF_LEN;

/// One flushed run of output frames: the decoded elements, their
/// pre-encoded wire frames, and lazily computed filter bitmaps. Immutable
/// once flushed and shared by `Arc` across every subscriber session; never
/// straddles an epoch boundary.
pub struct Chunk {
    /// Global output sequence of the first frame.
    pub base_seq: u64,
    elements: Vec<Element<Value>>,
    bytes: Vec<u8>,
    /// Per-frame `(start, len)` ranges into `bytes`.
    offsets: Vec<(u32, u32)>,
    /// Filter-class id → admission bitmap, computed once per class per
    /// chunk and shared among every subscriber of that class.
    bitmaps: Mutex<HashMap<u32, Arc<Vec<u64>>>>,
}

impl Chunk {
    /// Number of frames (elements) in the chunk.
    pub fn frames(&self) -> usize {
        self.offsets.len()
    }

    /// One past the last frame's global sequence.
    pub fn end_seq(&self) -> u64 {
        self.base_seq + self.offsets.len() as u64
    }

    /// The whole chunk's encoded frames, back to back.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The encoded bytes of frame `i`.
    pub fn frame_bytes(&self, i: usize) -> &[u8] {
        let (start, len) = self.offsets[i];
        &self.bytes[start as usize..(start + len) as usize]
    }

    /// The decoded element of frame `i`.
    pub fn element(&self, i: usize) -> &Element<Value> {
        &self.elements[i]
    }

    /// The admission bitmap for `filter`, keyed by its class id. Computed
    /// on first request, then shared (evaluated once per chunk per class,
    /// not per subscriber).
    pub fn bitmap(&self, class: u32, filter: &SubFilter) -> Arc<Vec<u64>> {
        let mut cache = self.bitmaps.lock().unwrap();
        Arc::clone(cache.entry(class).or_insert_with(|| {
            let mut bits = vec![0u64; self.elements.len().div_ceil(64)];
            for (i, e) in self.elements.iter().enumerate() {
                if filter.admits(e) {
                    bits[i / 64] |= 1 << (i % 64);
                }
            }
            Arc::new(bits)
        }))
    }

    /// Whether bit `i` is set in an admission bitmap.
    pub fn admitted(bits: &[u64], i: usize) -> bool {
        bits[i / 64] & (1 << (i % 64)) != 0
    }
}

/// A chunk is a run of encoded frames an [`EgressImage`] can share.
impl AsRef<[u8]> for Chunk {
    fn as_ref(&self) -> &[u8] {
        &self.bytes
    }
}

/// A sealed epoch's marker, stamped behind the epoch's last chunk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Seal {
    /// Position in the buffer's epoch sequence.
    pub index: u64,
    /// The output stable point after this epoch (the advance that sealed
    /// it; the buffer's stable-so-far for a `finish()` remainder).
    pub stable: Time,
    /// One past the epoch's last frame's global sequence.
    pub end_seq: u64,
}

/// Retention/demotion knobs for the broadcast buffer.
#[derive(Clone, Copy, Debug)]
pub struct SubPolicy {
    /// A cursor lagging more than this many epochs behind the sealed
    /// tail stops pinning retention; its subscriber is demoted to
    /// catch-up-from-stable on its next read.
    pub max_lag_epochs: u64,
    /// Never compact below this many retained epochs (late joiners get at
    /// least this much history).
    pub retain_min_epochs: u64,
}

impl Default for SubPolicy {
    fn default() -> SubPolicy {
        SubPolicy {
            max_lag_epochs: u64::MAX,
            retain_min_epochs: 1,
        }
    }
}

/// What a subscriber session finds when it asks for the frames from its
/// cursor on.
pub enum EpochWait {
    /// The flushed chunk holding the cursor; deliver it from there.
    Ready {
        /// The chunk (the cursor may point into its middle).
        chunk: Arc<Chunk>,
        /// The marker of the sealed epoch the chunk ends, if it ends one.
        /// (A remainder that `finish()` seals after its last chunk was
        /// taken goes unreported.)
        seal: Option<Seal>,
        /// Epochs sealed so far.
        sealed: u64,
        /// Epochs retained.
        retained: u64,
        /// Next output sequence the publisher will assign.
        next_seq: u64,
        /// Chunks flushed so far.
        flushes: u64,
    },
    /// The cursor's epoch was retired. Catch up from the horizon.
    Compacted {
        /// Base output sequence of the first retained epoch (the demoted
        /// session's new cursor).
        resume_seq: u64,
        /// Stable point covered by the retired prefix.
        stable: Time,
    },
    /// The stream ended at the cursor; nothing more will be flushed.
    Finished,
    /// Nothing flushed at the cursor within the timeout; ask again.
    TimedOut,
}

struct BufferInner {
    /// Flushed chunks of the retained epochs, sealed and open, in
    /// sequence order.
    chunks: VecDeque<Arc<Chunk>>,
    /// Markers of the retained sealed epochs, oldest first.
    seals: VecDeque<Seal>,
    /// Index the open epoch will take when sealed.
    next_index: u64,
    /// The publisher-private tail: published, not yet flushed.
    tail_elements: Vec<Element<Value>>,
    tail_bytes: Vec<u8>,
    tail_offsets: Vec<(u32, u32)>,
    /// Sequence of the open epoch's first frame.
    open_base_seq: u64,
    next_seq: u64,
    stable: Time,
    /// Stable point the retired prefix had reached (what a demoted
    /// subscriber's catch-up `Welcome` reports).
    compact_stable: Time,
    finished: bool,
    flushes: u64,
    /// Durable cursors: subscriber id → acked next output sequence.
    /// These pin retention (until they lag past the policy) and are what
    /// checkpoints persist.
    cursors: HashMap<u64, u64>,
}

impl BufferInner {
    /// Global sequence of the first retained (or open) frame.
    fn horizon_seq(&self) -> u64 {
        self.chunks
            .front()
            .map(|c| c.base_seq)
            .unwrap_or(self.open_base_seq)
    }

    /// Index of the first retained epoch.
    fn first_index(&self) -> u64 {
        self.next_index - self.seals.len() as u64
    }

    /// Stamp the marker behind the (already flushed) open epoch.
    fn seal_open(&mut self) {
        self.seals.push_back(Seal {
            index: self.next_index,
            stable: self.stable,
            end_seq: self.next_seq,
        });
        self.open_base_seq = self.next_seq;
        self.next_index += 1;
    }
}

/// The shared broadcast buffer. One publisher (the merge's hooks, on the
/// executor thread) appends and flushes; any number of subscriber
/// sessions read flushed chunks by `Arc`.
pub struct EpochBuffer {
    inner: Mutex<BufferInner>,
    flushed: Condvar,
    /// The tail is non-empty. Lets an idle `flush()` return without the
    /// lock; `Relaxed` because it guards no data — the tail itself is
    /// only ever touched under `inner`.
    unflushed: AtomicBool,
    policy: SubPolicy,
}

impl EpochBuffer {
    /// An empty buffer starting at sequence 0.
    pub fn new(policy: SubPolicy) -> EpochBuffer {
        EpochBuffer {
            inner: Mutex::new(BufferInner {
                chunks: VecDeque::new(),
                seals: VecDeque::new(),
                next_index: 0,
                tail_elements: Vec::new(),
                tail_bytes: Vec::new(),
                tail_offsets: Vec::new(),
                open_base_seq: 0,
                next_seq: 0,
                stable: Time::MIN,
                compact_stable: Time::MIN,
                finished: false,
                flushes: 0,
                cursors: HashMap::new(),
            }),
            flushed: Condvar::new(),
            unflushed: AtomicBool::new(false),
            policy,
        }
    }

    /// Rebuild a buffer from a checkpoint's egress image: decode the
    /// retained frames, re-seal epochs at the same stable advances, and
    /// leave the post-stable remainder open (and flushed: a rejoining
    /// subscriber sees it at once). Subscriber cursors come back with it.
    /// Corrupt frames fail typed — a checkpoint is still a file.
    pub fn restore(image: &EgressImage, policy: SubPolicy) -> Result<EpochBuffer, WireError> {
        let buf = EpochBuffer::new(policy);
        {
            let mut inner = buf.inner.lock().unwrap();
            inner.open_base_seq = image.base_seq;
            inner.next_seq = image.base_seq;
            inner.compact_stable = image.stable;
            inner.cursors = image.cursors.iter().copied().collect();
        }
        let frames = image.frame_bytes();
        let mut rest = &frames[..];
        let mut expected = image.base_seq;
        while !rest.is_empty() {
            let (frame, used) = wire::decode(rest)?;
            rest = &rest[used..];
            let Frame::Data { seq, at, element } = frame else {
                return Err(WireError::Protocol("egress image holds a non-data frame"));
            };
            if seq != expected {
                return Err(WireError::Protocol("egress image sequence gap"));
            }
            expected = expected.wrapping_add(1);
            // Re-publish through the normal path; the encoding is
            // canonical, so the rebuilt chunks hold identical bytes.
            buf.publish(at, std::slice::from_ref(&element));
        }
        if expected != image.next_seq {
            return Err(WireError::Protocol("egress image frame count mismatch"));
        }
        buf.flush();
        {
            // The image's stable is authoritative (the retained tail may
            // open below it when the cut fell mid-epoch).
            let mut inner = buf.inner.lock().unwrap();
            inner.stable = inner.stable.max(image.stable);
        }
        Ok(buf)
    }

    /// Append `emitted` to the tail, sealing the open epoch at each
    /// advance of the output stable point. Called by the merge's hooks
    /// with each consumption's emissions — single-publisher by
    /// construction. Nothing is visible to sessions before a flush.
    ///
    /// A call that flushed yields the CPU once the lock is released. The
    /// publisher is the merge thread, which need not block again soon — it
    /// reads its own inputs — so on a server whose threads share a core the
    /// sessions the flush woke would otherwise wait for the end of its time
    /// slice to send what it made visible.
    pub fn publish(&self, at: VTime, emitted: &[Element<Value>]) {
        if emitted.is_empty() {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        let flushes = inner.flushes;
        let mut sealed_any = false;
        for e in emitted {
            let frame = Frame::Data {
                seq: inner.next_seq,
                at,
                element: e.clone(),
            };
            let start = inner.tail_bytes.len();
            wire::encode_into(&frame, &mut inner.tail_bytes);
            let end = inner.tail_bytes.len();
            debug_assert!(end <= u32::MAX as usize, "CHUNK_BYTES bounds the tail");
            inner
                .tail_offsets
                .push((start as u32, (end - start) as u32));
            inner.tail_elements.push(e.clone());
            inner.next_seq += 1;
            if let Element::Stable(t) = e {
                if *t > inner.stable {
                    inner.stable = *t;
                    self.flush_locked(&mut inner);
                    inner.seal_open();
                    sealed_any = true;
                }
            }
            if end >= CHUNK_BYTES {
                self.flush_locked(&mut inner);
            }
        }
        if sealed_any {
            // The lag window moved: stale cursors may stop pinning.
            self.compact_locked(&mut inner);
        }
        if !inner.tail_offsets.is_empty() {
            self.unflushed.store(true, Ordering::Relaxed);
        }
        let flushed = inner.flushes != flushes;
        drop(inner);
        if flushed {
            std::thread::yield_now();
        }
    }

    /// Make everything published so far visible: freeze the tail into a
    /// chunk and wake parked sessions. Free — no lock, no `notify` — when
    /// nothing was published since the last flush, so the publisher's
    /// driver may call it on every idle poll.
    pub fn flush(&self) {
        if self.unflushed.load(Ordering::Relaxed) {
            self.flush_locked(&mut self.inner.lock().unwrap());
        }
    }

    fn flush_locked(&self, inner: &mut BufferInner) {
        self.unflushed.store(false, Ordering::Relaxed);
        if inner.tail_offsets.is_empty() {
            return;
        }
        let offsets = std::mem::take(&mut inner.tail_offsets);
        let chunk = Chunk {
            base_seq: inner.next_seq - offsets.len() as u64,
            elements: std::mem::take(&mut inner.tail_elements),
            bytes: std::mem::take(&mut inner.tail_bytes),
            offsets,
            bitmaps: Mutex::new(HashMap::new()),
        };
        inner.chunks.push_back(Arc::new(chunk));
        inner.flushes += 1;
        self.flushed.notify_all();
    }

    /// Flush, seal any open remainder, and mark the stream complete.
    pub fn finish(&self) {
        let mut inner = self.inner.lock().unwrap();
        self.flush_locked(&mut inner);
        if inner.next_seq > inner.open_base_seq {
            inner.seal_open();
        }
        inner.finished = true;
        self.flushed.notify_all();
    }

    /// Wait (up to `timeout`) for a flushed frame at or after `seq`.
    pub fn wait_from(&self, seq: u64, timeout: Duration) -> EpochWait {
        let deadline = std::time::Instant::now() + timeout;
        let mut inner = self.inner.lock().unwrap();
        loop {
            if seq < inner.horizon_seq() {
                return EpochWait::Compacted {
                    resume_seq: inner.horizon_seq(),
                    stable: inner.compact_stable,
                };
            }
            let at = inner.chunks.partition_point(|c| c.end_seq() <= seq);
            if let Some(chunk) = inner.chunks.get(at) {
                let end = chunk.end_seq();
                let mark = inner.seals.partition_point(|s| s.end_seq < end);
                return EpochWait::Ready {
                    chunk: Arc::clone(chunk),
                    seal: inner.seals.get(mark).filter(|s| s.end_seq == end).copied(),
                    sealed: inner.next_index,
                    retained: inner.seals.len() as u64,
                    next_seq: inner.next_seq,
                    flushes: inner.flushes,
                };
            }
            if inner.finished {
                return EpochWait::Finished;
            }
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if left.is_zero() {
                return EpochWait::TimedOut;
            }
            let (guard, _) = self.flushed.wait_timeout(inner, left).unwrap();
            inner = guard;
        }
    }

    /// Record `subscriber`'s durable cursor (acked next sequence; grows
    /// monotonically) and retire epochs every live cursor has passed.
    pub fn ack(&self, subscriber: u64, next_seq: u64) {
        let mut inner = self.inner.lock().unwrap();
        let cur = inner.cursors.entry(subscriber).or_insert(0);
        *cur = (*cur).max(next_seq);
        self.compact_locked(&mut inner);
    }

    /// Forget a subscriber entirely (its cursor stops pinning retention
    /// and will not be persisted).
    pub fn forget(&self, subscriber: u64) {
        let mut inner = self.inner.lock().unwrap();
        inner.cursors.remove(&subscriber);
        self.compact_locked(&mut inner);
    }

    /// The durable cursor map, sorted by subscriber id.
    pub fn cursors(&self) -> Vec<(u64, u64)> {
        let inner = self.inner.lock().unwrap();
        let mut out: Vec<(u64, u64)> = inner.cursors.iter().map(|(&s, &c)| (s, c)).collect();
        out.sort_unstable();
        out
    }

    /// Retire epochs below the minimum effective cursor. A cursor lagging
    /// more than `max_lag_epochs` behind the sealed tail is clamped up to
    /// the lag window (its subscriber will be demoted to the horizon when
    /// it next reads), and at least `retain_min_epochs` sealed epochs are
    /// always kept.
    fn compact_locked(&self, inner: &mut BufferInner) {
        // Oldest epoch a non-demoted cursor may still pin; its base
        // sequence (the end of the epoch before it) is the floor every
        // cursor is clamped up to.
        let window_start = inner.next_index.saturating_sub(self.policy.max_lag_epochs);
        let window_base_seq = match window_start.saturating_sub(inner.first_index()) {
            0 => inner.horizon_seq(),
            k => inner.seals[k as usize - 1].end_seq,
        };
        let floor_seq = inner
            .cursors
            .values()
            .map(|&c| c.max(window_base_seq))
            .min()
            .unwrap_or(window_base_seq);
        while inner.seals.len() as u64 > self.policy.retain_min_epochs {
            let front = inner.seals[0];
            if front.end_seq > floor_seq {
                break;
            }
            inner.seals.pop_front();
            while inner
                .chunks
                .front()
                .is_some_and(|c| c.end_seq() <= front.end_seq)
            {
                inner.chunks.pop_front();
            }
            inner.compact_stable = inner.compact_stable.max(front.stable);
        }
    }

    /// The compaction horizon: `(first retained epoch index, its base
    /// sequence, stable point of the retired prefix)` — what a stale
    /// `resume_from` is clamped up to at the subscribe handshake.
    pub fn horizon(&self) -> (u64, u64, Time) {
        let inner = self.inner.lock().unwrap();
        (
            inner.first_index(),
            inner.horizon_seq(),
            inner.compact_stable,
        )
    }

    /// `(next sequence, stable point, sealed epochs, retained epochs)` —
    /// the publisher-side gauges.
    pub fn stats(&self) -> (u64, Time, u64, u64) {
        let inner = self.inner.lock().unwrap();
        (
            inner.next_seq,
            inner.stable,
            inner.next_index,
            inner.seals.len() as u64,
        )
    }

    /// Chunks flushed so far (frames ÷ flushes is the egress batch size).
    pub fn flushes(&self) -> u64 {
        self.inner.lock().unwrap().flushes
    }

    /// Whether [`finish`](EpochBuffer::finish) has been called.
    pub fn finished(&self) -> bool {
        self.inner.lock().unwrap().finished
    }

    /// Snapshot the buffer as a checkpointable [`EgressImage`]: durable
    /// cursors plus every retained frame (flushed chunks and the
    /// unflushed tail; a restore re-opens what was not sealed). The
    /// flushed chunks are shared, not copied: the lock is held for a
    /// pointer per chunk and a copy of the tail.
    pub fn image(&self) -> EgressImage {
        let inner = self.inner.lock().unwrap();
        let mut frames: Vec<FrameRun> = Vec::with_capacity(inner.chunks.len() + 1);
        frames.extend(inner.chunks.iter().map(|c| Arc::clone(c) as FrameRun));
        if !inner.tail_bytes.is_empty() {
            frames.push(Arc::new(inner.tail_bytes.clone()));
        }
        let mut cursors: Vec<(u64, u64)> = inner.cursors.iter().map(|(&s, &c)| (s, c)).collect();
        cursors.sort_unstable();
        EgressImage {
            cursors,
            base_seq: inner.horizon_seq(),
            next_seq: inner.next_seq,
            stable: inner.stable,
            frames,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ins(key: i32, vs: i64) -> Element<Value> {
        Element::insert(Value::bare(key), vs, vs + 10)
    }

    fn stable(t: i64) -> Element<Value> {
        Element::<Value>::stable(Time(t))
    }

    /// The flushed chunk at `seq` and the seal it ends on, if any.
    fn ready(buf: &EpochBuffer, seq: u64) -> (Arc<Chunk>, Option<Seal>) {
        match buf.wait_from(seq, Duration::from_millis(10)) {
            EpochWait::Ready { chunk, seal, .. } => (chunk, seal),
            _ => panic!("a flushed chunk at seq {seq}"),
        }
    }

    #[test]
    fn epochs_seal_at_stable_advances() {
        let buf = EpochBuffer::new(SubPolicy::default());
        buf.publish(VTime(1), &[ins(1, 0), ins(2, 1), stable(5)]);
        buf.publish(VTime(2), &[ins(3, 6), stable(5)]); // duplicate: no seal
        buf.publish(VTime(3), &[stable(9)]);
        let (next_seq, st, sealed, retained) = buf.stats();
        assert_eq!((next_seq, st, sealed, retained), (6, Time(9), 2, 2));
        let (c0, s0) = ready(&buf, 0);
        assert_eq!((c0.base_seq, c0.frames()), (0, 3));
        let seal = |index, stable, end_seq| Seal {
            index,
            stable: Time(stable),
            end_seq,
        };
        assert_eq!(s0, Some(seal(0, 5, 3)));
        // A busy publisher (no idle flush) delivers once per seal.
        let (c1, s1) = ready(&buf, 3);
        assert_eq!((c1.base_seq, c1.frames()), (3, 3));
        assert_eq!(s1, Some(seal(1, 9, 6)));
        assert_eq!(buf.flushes(), 2);
        // The pre-encoded frames decode back to the published elements
        // with dense global sequences.
        let frames = lmerge_net::wire::decode_all(c0.bytes()).unwrap();
        assert!(
            matches!(frames[0], Frame::Data { seq: 0, .. })
                && matches!(frames[2], Frame::Data { seq: 2, .. })
        );
    }

    #[test]
    fn the_open_tail_is_visible_after_a_flush_and_not_before() {
        let buf = EpochBuffer::new(SubPolicy::default());
        buf.publish(VTime(1), &[ins(1, 0), ins(2, 1)]);
        assert!(
            matches!(
                buf.wait_from(0, Duration::from_millis(20)),
                EpochWait::TimedOut
            ),
            "published is not visible: visibility = flush"
        );
        buf.flush();
        let (chunk, seal) = ready(&buf, 0);
        assert_eq!((chunk.base_seq, chunk.frames(), seal), (0, 2, None));
        assert_eq!(buf.stats().2, 0, "no epoch sealed: no stable yet");
        // A cursor inside the flushed chunk gets the same chunk; one at
        // its end waits for the next flush.
        assert_eq!(ready(&buf, 1).0.base_seq, 0);
        assert!(matches!(
            buf.wait_from(2, Duration::from_millis(1)),
            EpochWait::TimedOut
        ));
        // The seal rides on the chunk that ends the epoch.
        buf.publish(VTime(2), &[ins(3, 2), stable(5)]);
        let (chunk, seal) = ready(&buf, 2);
        assert_eq!((chunk.base_seq, chunk.frames()), (2, 2));
        assert_eq!(seal.map(|s| (s.index, s.end_seq)), Some((0, 4)));
    }

    #[test]
    fn an_idle_flush_takes_no_lock_and_wakes_nobody() {
        let buf = EpochBuffer::new(SubPolicy::default());
        buf.publish(VTime(1), &[ins(1, 0), stable(5)]); // sealed: tail empty
        let flushed = buf.flushes();
        // Holding the buffer lock here: a flush that reached for it would
        // never return.
        let guard = buf.inner.lock().unwrap();
        for _ in 0..10_000 {
            buf.flush();
        }
        drop(guard);
        assert_eq!(buf.flushes(), flushed, "nothing published, nothing flushed");
    }

    #[test]
    fn a_tail_past_the_byte_cap_rolls_into_several_chunks() {
        let buf = EpochBuffer::new(SubPolicy::default());
        let feed: Vec<Element<Value>> = (0..100)
            .map(|i| Element::insert(Value::synthetic(i, 1000), i as i64, i as i64 + 5))
            .collect();
        buf.publish(VTime(1), &feed); // no stable, no flush: > 2 × CHUNK_BYTES
        assert!(buf.flushes() >= 2, "the cap rolled the tail by itself");
        buf.publish(VTime(2), &[stable(9)]);
        let mut reference = Vec::new();
        for (seq, e) in feed.iter().chain(&[stable(9)]).enumerate() {
            let frame = Frame::Data {
                seq: seq as u64,
                at: VTime(if seq < 100 { 1 } else { 2 }),
                element: e.clone(),
            };
            wire::encode_into(&frame, &mut reference);
        }
        let (mut seq, mut bytes, mut chunks) = (0, Vec::new(), 0);
        while seq < 101 {
            let (chunk, seal) = ready(&buf, seq);
            assert_eq!(chunk.base_seq, seq);
            assert!(chunk.bytes().len() < CHUNK_BYTES + 2048);
            for i in 0..chunk.frames() {
                bytes.extend_from_slice(chunk.frame_bytes(i));
            }
            seq = chunk.end_seq();
            chunks += 1;
            assert_eq!(
                seal.is_some(),
                seq == 101,
                "one seal, behind the last chunk"
            );
        }
        assert!(chunks >= 3);
        assert_eq!(bytes, reference, "chunked delivery is byte-identical");
        assert_eq!(buf.image().frame_bytes(), reference);
    }

    #[test]
    fn bitmaps_are_shared_per_filter_class() {
        let buf = EpochBuffer::new(SubPolicy::default());
        buf.publish(VTime(1), &[ins(1, 0), ins(2, 1), ins(3, 2), stable(5)]);
        let (c, _) = ready(&buf, 0);
        let f = SubFilter::KeyMod {
            modulus: 2,
            residue: 0,
        };
        let a = c.bitmap(1, &f);
        let b = c.bitmap(1, &f);
        assert!(Arc::ptr_eq(&a, &b), "one bitmap per class per chunk");
        assert!(!Chunk::admitted(&a, 0)); // key 1
        assert!(Chunk::admitted(&a, 1)); // key 2
        assert!(!Chunk::admitted(&a, 2)); // key 3
        assert!(Chunk::admitted(&a, 3)); // stable always passes
    }

    #[test]
    fn key_mod_is_total_over_every_modulus_and_key() {
        let keys = [i32::MIN, -1, 0, i32::MAX];
        for modulus in [0u32, 1, 1 << 31, u32::MAX] {
            for key in keys {
                let want = (key as i64).rem_euclid(modulus.max(1) as i64) as u32;
                for residue in [0, want, want.wrapping_add(1)] {
                    let f = SubFilter::KeyMod { modulus, residue };
                    assert_eq!(
                        f.admits(&ins(key, 0)),
                        modulus == 0 || residue == want,
                        "key {key} mod {modulus} vs residue {residue}"
                    );
                }
            }
        }
        // The bitmap cache survives the modulus that used to panic under
        // its lock.
        let buf = EpochBuffer::new(SubPolicy::default());
        buf.publish(VTime(1), &[ins(i32::MIN, 0), stable(5)]);
        let f = SubFilter::parse("mod:4294967295:0").unwrap();
        let (c, _) = ready(&buf, 0);
        assert!(!Chunk::admitted(&c.bitmap(1, &f), 0)); // 2^31 - 1 ≠ 0
        assert!(Chunk::admitted(&c.bitmap(1, &f), 1));
    }

    #[test]
    fn parse_rejects_a_residue_no_key_can_have() {
        assert_eq!(
            SubFilter::parse("mod:4:3"),
            Some(SubFilter::KeyMod {
                modulus: 4,
                residue: 3
            })
        );
        assert_eq!(SubFilter::parse("mod:4:4"), None);
        assert_eq!(SubFilter::parse("mod:1:1"), None);
        // Modulus 0 admits everything, whatever the residue says.
        assert!(SubFilter::parse("mod:0:9").is_some());
        for spec in ["all", "mod:4294967295:4294967294", "range:-5:40"] {
            assert_eq!(SubFilter::parse(spec).unwrap().to_string(), spec);
        }
    }

    #[test]
    fn compaction_waits_for_the_slowest_cursor() {
        let policy = SubPolicy {
            retain_min_epochs: 0,
            ..SubPolicy::default()
        };
        let buf = EpochBuffer::new(policy);
        for i in 0..4i64 {
            // Epoch i holds seqs [2i, 2i + 2).
            buf.publish(VTime(i as u64), &[ins(i as i32, i), stable(i * 10 + 1)]);
        }
        buf.ack(2, 2); // slow subscriber still needs epoch 1 onward
        buf.ack(1, 8); // fast subscriber is past everything
        assert!(
            matches!(
                buf.wait_from(0, Duration::from_millis(1)),
                EpochWait::Compacted { resume_seq: 2, .. }
            ),
            "epoch 0 retired once both cursors passed it"
        );
        assert_eq!(ready(&buf, 2).1.map(|s| s.index), Some(1));
        buf.ack(2, 8); // slow subscriber catches up: everything retires
        assert_eq!(buf.horizon().0, 4);
        assert!(matches!(
            buf.wait_from(6, Duration::from_millis(1)),
            EpochWait::Compacted { resume_seq: 8, .. }
        ));
    }

    #[test]
    fn lagging_cursor_stops_pinning_under_the_policy() {
        let policy = SubPolicy {
            max_lag_epochs: 1,
            retain_min_epochs: 1,
        };
        let buf = EpochBuffer::new(policy);
        buf.ack(7, 0); // joined at the top, then went silent
        for i in 0..6i64 {
            buf.publish(VTime(i as u64), &[ins(i as i32, i), stable(i * 10 + 1)]);
        }
        buf.ack(1, 12); // fast subscriber drives compaction
        let (_, _, sealed, retained) = buf.stats();
        assert_eq!(sealed, 6);
        assert!(
            retained <= policy.max_lag_epochs + 1,
            "stale cursor must not pin the whole history (retained {retained})"
        );
        match buf.wait_from(0, Duration::from_millis(1)) {
            EpochWait::Compacted { resume_seq, .. } => assert!(resume_seq > 0),
            _ => panic!("epoch 0 should be retired"),
        }
    }

    #[test]
    fn image_round_trips_through_restore() {
        let buf = EpochBuffer::new(SubPolicy::default());
        buf.publish(VTime(1), &[ins(1, 0), stable(5)]);
        buf.publish(VTime(2), &[ins(2, 6), ins(3, 7)]);
        buf.flush(); // the open epoch: one flushed chunk …
        buf.publish(VTime(3), &[ins(4, 8)]); // … and an unflushed tail
        buf.ack(9, 1);
        let image = buf.image();
        assert_eq!(image.next_seq, 5);
        assert_eq!(image.cursors, vec![(9, 1)]);
        let back = EpochBuffer::restore(&image, SubPolicy::default()).unwrap();
        let (next_seq, st, sealed, _) = back.stats();
        assert_eq!((next_seq, st, sealed), (5, Time(5), 1));
        assert_eq!(back.cursors(), vec![(9, 1)]);
        // The open epoch came back open and flushed: a rejoining
        // subscriber sees all of its retained tail before the next stable.
        let (tail, seal) = ready(&back, 2);
        assert_eq!((tail.base_seq, tail.frames(), seal), (2, 3, None));
        // Continuing the stream seals the re-opened epoch identically.
        back.publish(VTime(4), &[stable(9)]);
        buf.publish(VTime(4), &[stable(9)]);
        assert_eq!(ready(&back, 5).1, ready(&buf, 5).1);
        assert_eq!(
            back.image().frame_bytes(),
            buf.image().frame_bytes(),
            "restored tail is byte-identical"
        );
    }

    #[test]
    fn corrupt_image_fails_typed() {
        let buf = EpochBuffer::new(SubPolicy::default());
        buf.publish(VTime(1), &[ins(1, 0), stable(5)]);
        let edited = |edit: fn(&mut Vec<u8>)| {
            let mut image = buf.image();
            let mut bytes = image.frame_bytes();
            edit(&mut bytes);
            image.frames = vec![Arc::new(bytes)];
            image
        };
        let flipped = edited(|b| b[6] ^= 0x20);
        assert!(EpochBuffer::restore(&flipped, SubPolicy::default()).is_err());
        let short = edited(|b| b.truncate(b.len() - 3));
        assert!(EpochBuffer::restore(&short, SubPolicy::default()).is_err());
    }
}
