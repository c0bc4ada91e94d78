//! The epoch-batched broadcast buffer: merge output written once, fanned
//! out to N subscribers with zero per-subscriber copies.
//!
//! The merge's hooks publish every emitted element into an *open* epoch;
//! each advance of the output stable point seals the epoch into a
//! refcounted [`EpochSegment`] holding both the decoded elements and
//! their wire-encoded `Data` frames (encoded exactly once, with the
//! global output sequence NetHooks would have assigned). Subscriber
//! sessions then share segments by `Arc`: delivery is a ranged
//! `write_all` out of the shared byte block, so the per-subscriber cost
//! is a socket write, not a re-serialization — the DBSP-style
//! deltas-at-stable-advances delivery model from the ISSUE.
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
//! [`EpochBuffer::image`] snapshots the retained frames plus the open
//! tail into an [`EgressImage`] (already wire bytes, so the durable layer
//! stores it verbatim); [`EpochBuffer::restore`] decodes one back,
//! re-sealing epochs at the same stable advances. Because the publisher
//! runs on the executor thread, an image polled at a checkpoint cut is
//! exactly consistent with the merge image saved beside it.

use lmerge_engine::EgressImage;
use lmerge_net::wire::{self, Frame, WireError};
use lmerge_temporal::{Element, Time, VTime, Value};
use std::collections::{HashMap, VecDeque};
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
                modulus == 0 || key.rem_euclid(modulus as i32) as u32 == residue
            }
            SubFilter::KeyRange { min, max } => (min..=max).contains(&key),
        }
    }

    /// Parse `all`, `mod:M:R`, or `range:LO:HI` (the bins' flag syntax).
    pub fn parse(s: &str) -> Option<SubFilter> {
        if s == "all" {
            return Some(SubFilter::All);
        }
        let mut parts = s.split(':');
        match (parts.next()?, parts.next(), parts.next(), parts.next()) {
            ("mod", Some(m), Some(r), None) => Some(SubFilter::KeyMod {
                modulus: m.parse().ok()?,
                residue: r.parse().ok()?,
            }),
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

/// One sealed output epoch: the elements between two stable advances,
/// their pre-encoded wire frames, and lazily computed filter bitmaps.
/// Shared by `Arc` across every subscriber session.
pub struct EpochSegment {
    /// Position in the buffer's epoch sequence.
    pub index: u64,
    /// Global output sequence of the first frame.
    pub base_seq: u64,
    /// The output stable point after this epoch (the advance that sealed
    /// it; the buffer's stable-so-far for a `finish()` remainder).
    pub stable: Time,
    elements: Vec<Element<Value>>,
    bytes: Vec<u8>,
    /// Per-frame `(start, len)` ranges into `bytes`.
    offsets: Vec<(u32, u32)>,
    /// Filter-class id → admission bitmap, computed once per class per
    /// epoch and shared among every subscriber of that class.
    bitmaps: Mutex<HashMap<u32, Arc<Vec<u64>>>>,
}

impl EpochSegment {
    /// Number of frames (elements) in the epoch.
    pub fn frames(&self) -> usize {
        self.offsets.len()
    }

    /// One past the last frame's global sequence.
    pub fn end_seq(&self) -> u64 {
        self.base_seq + self.offsets.len() as u64
    }

    /// The whole epoch's encoded frames, back to back.
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
    /// on first request, then shared (evaluated once per epoch per class,
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

/// What a subscriber session finds when it asks for an epoch.
pub enum EpochWait {
    /// The epoch is retained; deliver it.
    Ready(Arc<EpochSegment>),
    /// The epoch was retired. Catch up from the horizon: the first
    /// retained epoch, its base sequence, and the stable point the
    /// retired prefix had reached.
    Compacted {
        /// First retained epoch index.
        resume_index: u64,
        /// Its base output sequence (the demoted session's new cursor).
        resume_seq: u64,
        /// Stable point covered by the retired prefix.
        stable: Time,
    },
    /// The stream ended before this epoch; nothing more will be sealed.
    Finished,
    /// Nothing sealed yet within the timeout; ask again.
    TimedOut,
}

struct BufferInner {
    epochs: VecDeque<Arc<EpochSegment>>,
    /// Index of `epochs.front()` (epochs below this are retired).
    first_index: u64,
    /// Index the open epoch will take when sealed.
    next_index: u64,
    open_elements: Vec<Element<Value>>,
    open_bytes: Vec<u8>,
    open_offsets: Vec<(u32, u32)>,
    open_base_seq: u64,
    next_seq: u64,
    stable: Time,
    /// Stable point the retired prefix had reached (what a demoted
    /// subscriber's catch-up `Welcome` reports).
    compact_stable: Time,
    finished: bool,
    /// Durable cursors: subscriber id → acked next output sequence.
    /// These pin retention (until they lag past the policy) and are what
    /// checkpoints persist.
    cursors: HashMap<u64, u64>,
}

impl BufferInner {
    /// Global sequence of the first retained (or open) frame.
    fn horizon_seq(&self) -> u64 {
        self.epochs
            .front()
            .map(|e| e.base_seq)
            .unwrap_or(self.open_base_seq)
    }

    fn seal_open(&mut self) {
        let seg = EpochSegment {
            index: self.next_index,
            base_seq: self.open_base_seq,
            stable: self.stable,
            elements: std::mem::take(&mut self.open_elements),
            bytes: std::mem::take(&mut self.open_bytes),
            offsets: std::mem::take(&mut self.open_offsets),
            bitmaps: Mutex::new(HashMap::new()),
        };
        self.open_base_seq = self.next_seq;
        self.next_index += 1;
        self.epochs.push_back(Arc::new(seg));
    }
}

/// The shared broadcast buffer. One publisher (the merge's hooks, on the
/// executor thread) appends; any number of subscriber sessions read
/// sealed epochs by `Arc`.
pub struct EpochBuffer {
    inner: Mutex<BufferInner>,
    sealed: Condvar,
    policy: SubPolicy,
}

impl EpochBuffer {
    /// An empty buffer starting at sequence 0.
    pub fn new(policy: SubPolicy) -> EpochBuffer {
        EpochBuffer {
            inner: Mutex::new(BufferInner {
                epochs: VecDeque::new(),
                first_index: 0,
                next_index: 0,
                open_elements: Vec::new(),
                open_bytes: Vec::new(),
                open_offsets: Vec::new(),
                open_base_seq: 0,
                next_seq: 0,
                stable: Time::MIN,
                compact_stable: Time::MIN,
                finished: false,
                cursors: HashMap::new(),
            }),
            sealed: Condvar::new(),
            policy,
        }
    }

    /// Rebuild a buffer from a checkpoint's egress image: decode the
    /// retained frames, re-seal epochs at the same stable advances, and
    /// leave the post-stable remainder open. Subscriber cursors come back
    /// with it. Corrupt frames fail typed — a checkpoint is still a file.
    pub fn restore(image: &EgressImage, policy: SubPolicy) -> Result<EpochBuffer, WireError> {
        let buf = EpochBuffer::new(policy);
        {
            let mut inner = buf.inner.lock().unwrap();
            inner.open_base_seq = image.base_seq;
            inner.next_seq = image.base_seq;
            inner.compact_stable = image.stable;
            inner.cursors = image.cursors.iter().copied().collect();
        }
        let mut rest = &image.frames[..];
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
            // canonical, so the rebuilt segments hold identical bytes.
            buf.publish(at, std::slice::from_ref(&element));
        }
        if expected != image.next_seq {
            return Err(WireError::Protocol("egress image frame count mismatch"));
        }
        {
            // The image's stable is authoritative (the retained tail may
            // open below it when the cut fell mid-epoch).
            let mut inner = buf.inner.lock().unwrap();
            inner.stable = inner.stable.max(image.stable);
        }
        Ok(buf)
    }

    /// Append `emitted` to the open epoch, sealing it at each advance of
    /// the output stable point. Called by the merge's hooks with each
    /// consumption's emissions — single-publisher by construction.
    pub fn publish(&self, at: VTime, emitted: &[Element<Value>]) {
        if emitted.is_empty() {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        let mut sealed_any = false;
        for e in emitted {
            let frame = Frame::Data {
                seq: inner.next_seq,
                at,
                element: e.clone(),
            };
            let start = inner.open_bytes.len() as u32;
            wire::encode_into(&frame, &mut inner.open_bytes);
            let len = inner.open_bytes.len() as u32 - start;
            inner.open_offsets.push((start, len));
            inner.open_elements.push(e.clone());
            inner.next_seq += 1;
            if let Element::Stable(t) = e {
                if *t > inner.stable {
                    inner.stable = *t;
                    inner.seal_open();
                    sealed_any = true;
                }
            }
        }
        if sealed_any {
            // The lag window moved: stale cursors may stop pinning.
            self.compact_locked(&mut inner);
            self.sealed.notify_all();
        }
    }

    /// Seal any open remainder and mark the stream complete.
    pub fn finish(&self) {
        let mut inner = self.inner.lock().unwrap();
        if !inner.open_elements.is_empty() {
            inner.seal_open();
        }
        inner.finished = true;
        self.sealed.notify_all();
    }

    /// Wait (up to `timeout`) for epoch `index` to be readable.
    pub fn wait_epoch(&self, index: u64, timeout: Duration) -> EpochWait {
        let deadline = std::time::Instant::now() + timeout;
        let mut inner = self.inner.lock().unwrap();
        loop {
            if index < inner.first_index {
                return EpochWait::Compacted {
                    resume_index: inner.first_index,
                    resume_seq: inner.horizon_seq(),
                    stable: inner.compact_stable,
                };
            }
            if index < inner.next_index {
                let seg = &inner.epochs[(index - inner.first_index) as usize];
                return EpochWait::Ready(Arc::clone(seg));
            }
            if inner.finished {
                return EpochWait::Finished;
            }
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if left.is_zero() {
                return EpochWait::TimedOut;
            }
            let (guard, _) = self.sealed.wait_timeout(inner, left).unwrap();
            inner = guard;
        }
    }

    /// The sealed epoch containing `seq`, clamped into the retained
    /// window (a stale sequence maps to the horizon, a future one to the
    /// open tail).
    pub fn index_for_seq(&self, seq: u64) -> u64 {
        let inner = self.inner.lock().unwrap();
        for seg in &inner.epochs {
            if seq < seg.end_seq() {
                return seg.index;
            }
        }
        inner.next_index
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
        // sequence is the floor every cursor is clamped up to.
        let window_start = inner.next_index.saturating_sub(self.policy.max_lag_epochs);
        let window_base_seq = inner
            .epochs
            .iter()
            .find(|s| s.index >= window_start)
            .map(|s| s.base_seq)
            .unwrap_or(inner.open_base_seq);
        let floor_seq = inner
            .cursors
            .values()
            .map(|&c| c.max(window_base_seq))
            .min()
            .unwrap_or(window_base_seq);
        while inner.epochs.len() as u64 > self.policy.retain_min_epochs {
            let front = inner.epochs.front().unwrap();
            if front.end_seq() > floor_seq {
                break;
            }
            let retired = inner.epochs.pop_front().unwrap();
            inner.first_index = retired.index + 1;
            inner.compact_stable = inner.compact_stable.max(retired.stable);
        }
    }

    /// The compaction horizon: `(first retained epoch index, its base
    /// sequence, stable point of the retired prefix)` — what a stale
    /// `resume_from` is clamped up to at the subscribe handshake.
    pub fn horizon(&self) -> (u64, u64, Time) {
        let inner = self.inner.lock().unwrap();
        (inner.first_index, inner.horizon_seq(), inner.compact_stable)
    }

    /// `(next sequence, stable point, sealed epochs, retained epochs)` —
    /// the publisher-side gauges.
    pub fn stats(&self) -> (u64, Time, u64, u64) {
        let inner = self.inner.lock().unwrap();
        (
            inner.next_seq,
            inner.stable,
            inner.next_index,
            inner.epochs.len() as u64,
        )
    }

    /// Whether [`finish`](EpochBuffer::finish) has been called.
    pub fn finished(&self) -> bool {
        self.inner.lock().unwrap().finished
    }

    /// Snapshot the buffer as a checkpointable [`EgressImage`]: durable
    /// cursors plus every retained frame (sealed epochs and the open
    /// tail, which a restore re-opens).
    pub fn image(&self) -> EgressImage {
        let inner = self.inner.lock().unwrap();
        let mut frames = Vec::new();
        for seg in &inner.epochs {
            frames.extend_from_slice(&seg.bytes);
        }
        frames.extend_from_slice(&inner.open_bytes);
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

    #[test]
    fn epochs_seal_at_stable_advances() {
        let buf = EpochBuffer::new(SubPolicy::default());
        buf.publish(VTime(1), &[ins(1, 0), ins(2, 1), stable(5)]);
        buf.publish(VTime(2), &[ins(3, 6), stable(5)]); // duplicate: no seal
        buf.publish(VTime(3), &[stable(9)]);
        let (next_seq, st, sealed, retained) = buf.stats();
        assert_eq!((next_seq, st, sealed, retained), (6, Time(9), 2, 2));
        let EpochWait::Ready(e0) = buf.wait_epoch(0, Duration::from_millis(10)) else {
            panic!("epoch 0 ready");
        };
        assert_eq!((e0.base_seq, e0.frames(), e0.stable), (0, 3, Time(5)));
        let EpochWait::Ready(e1) = buf.wait_epoch(1, Duration::from_millis(10)) else {
            panic!("epoch 1 ready");
        };
        assert_eq!((e1.base_seq, e1.frames(), e1.stable), (3, 3, Time(9)));
        // The pre-encoded frames decode back to the published elements
        // with dense global sequences.
        let frames = lmerge_net::egress::decode_all(e0.bytes()).unwrap();
        assert!(
            matches!(frames[0], Frame::Data { seq: 0, .. })
                && matches!(frames[2], Frame::Data { seq: 2, .. })
        );
    }

    #[test]
    fn bitmaps_are_shared_per_filter_class() {
        let buf = EpochBuffer::new(SubPolicy::default());
        buf.publish(VTime(1), &[ins(1, 0), ins(2, 1), ins(3, 2), stable(5)]);
        let EpochWait::Ready(e) = buf.wait_epoch(0, Duration::from_millis(10)) else {
            panic!("ready");
        };
        let f = SubFilter::KeyMod {
            modulus: 2,
            residue: 0,
        };
        let a = e.bitmap(1, &f);
        let b = e.bitmap(1, &f);
        assert!(Arc::ptr_eq(&a, &b), "one bitmap per class per epoch");
        assert!(!EpochSegment::admitted(&a, 0)); // key 1
        assert!(EpochSegment::admitted(&a, 1)); // key 2
        assert!(!EpochSegment::admitted(&a, 2)); // key 3
        assert!(EpochSegment::admitted(&a, 3)); // stable always passes
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
                buf.wait_epoch(0, Duration::from_millis(1)),
                EpochWait::Compacted { .. }
            ),
            "epoch 0 retired once both cursors passed it"
        );
        assert!(matches!(
            buf.wait_epoch(1, Duration::from_millis(1)),
            EpochWait::Ready(_)
        ));
        buf.ack(2, 8); // slow subscriber catches up: everything retires
        match buf.wait_epoch(3, Duration::from_millis(1)) {
            EpochWait::Compacted {
                resume_index,
                resume_seq,
                ..
            } => assert_eq!((resume_index, resume_seq), (4, 8)),
            _ => panic!("all epochs retired"),
        }
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
        match buf.wait_epoch(0, Duration::from_millis(1)) {
            EpochWait::Compacted { resume_seq, .. } => assert!(resume_seq > 0),
            _ => panic!("epoch 0 should be retired"),
        }
    }

    #[test]
    fn image_round_trips_through_restore() {
        let buf = EpochBuffer::new(SubPolicy::default());
        buf.publish(VTime(1), &[ins(1, 0), stable(5)]);
        buf.publish(VTime(2), &[ins(2, 6), ins(3, 7)]); // open tail
        buf.ack(9, 1);
        let image = buf.image();
        assert_eq!(image.next_seq, 4);
        assert_eq!(image.cursors, vec![(9, 1)]);
        let back = EpochBuffer::restore(&image, SubPolicy::default()).unwrap();
        let (next_seq, st, sealed, _) = back.stats();
        assert_eq!((next_seq, st, sealed), (4, Time(5), 1));
        assert_eq!(back.cursors(), vec![(9, 1)]);
        // Continuing the stream seals the re-opened tail identically.
        back.publish(VTime(3), &[stable(9)]);
        buf.publish(VTime(3), &[stable(9)]);
        let EpochWait::Ready(a) = back.wait_epoch(1, Duration::from_millis(10)) else {
            panic!("restored epoch 1");
        };
        let EpochWait::Ready(b) = buf.wait_epoch(1, Duration::from_millis(10)) else {
            panic!("original epoch 1");
        };
        assert_eq!(a.bytes(), b.bytes(), "restored tail is byte-identical");
    }

    #[test]
    fn corrupt_image_fails_typed() {
        let buf = EpochBuffer::new(SubPolicy::default());
        buf.publish(VTime(1), &[ins(1, 0), stable(5)]);
        let mut image = buf.image();
        image.frames[6] ^= 0x20;
        assert!(EpochBuffer::restore(&image, SubPolicy::default()).is_err());
        let mut short = buf.image();
        short.frames.truncate(short.frames.len() - 3);
        assert!(EpochBuffer::restore(&short, SubPolicy::default()).is_err());
    }
}
