//! The checkpoint store: versioned snapshot + delta files on disk, and the
//! sink that feeds it from a run without making the run wait for the disk.
//!
//! A checkpoint directory holds a numbered chain of files:
//!
//! ```text
//! ck-00000000-snap.lmck     full RunImage
//! ck-00000001-delta.lmck    diff against checkpoint 0
//! ck-00000002-delta.lmck    diff against checkpoint 1
//! ck-00000003-snap.lmck     full RunImage (chain restarts)
//! ...
//! ```
//!
//! Every file is a checksummed [`crate::codec`] envelope, published
//! crash-safely (`.tmp` + fsync + rename + directory fsync, see
//! `crate::fsutil`) so neither a process kill nor a power loss can leave a
//! torn checkpoint — at worst a stray temp file, cleared on the next open.
//! A delta stores the executor image and the merge image's scalars in full
//! (they are tiny) plus, for each index in a fixed order (shared entries,
//! then per-input indexes), what changed: a removed key as its `u32`
//! *ordinal* in the previous index
//! (both sides hold it, in the same order — a 1 KB payload is not written
//! again to say it is gone), an inserted-or-changed entry in full. The
//! store finds the changes by folding a cut — the index tiers the merge
//! changed since its previous cut — into the previous image
//! ([`RunImage::fold`]); applying a delta is a linear walk over the
//! previous image.
//!
//! [`CheckpointStore::load_latest`] restores the newest snapshot and
//! replays the deltas after it — defensively: a torn or missing file costs
//! only the chain suffix behind it. Recovery keeps the longest intact
//! prefix of the newest chain, falls back to an older snapshot chain when
//! the newest snapshot itself is unreadable, and surfaces what it skipped
//! as warnings ([`CheckpointStore::recover`]) instead of refusing to
//! restore at all.
//!
//! [`CheckpointStore`] is synchronous; [`DurableCheckpointSink`] puts it
//! on a writer thread, one cut behind the run at most (see there).

use crate::codec::{begin, open_envelope, put_count, seal, Cursor, DurableError, FileKind};
use crate::fsutil::{remove_temp_files, write_atomic, DirHandle};
use crate::image::{
    get_egress_image, get_entry, get_exec_image, get_merge_image, get_run_image, put_egress_image,
    put_entry, put_exec_image, put_merge_skeleton, put_run_image,
};
use crate::payload::DurablePayload;
use lmerge_core::{IndexChanges, MergeStateImage, StateEntry};
use lmerge_engine::{CheckpointSave, CheckpointSink, EgressImage, RunCut, RunImage};
use lmerge_obs::{CheckpointMetrics, MetricsRegistry};
use lmerge_temporal::Time;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;
use std::time::Instant;

/// How many deltas to chain after a snapshot before forcing the next
/// snapshot. Bounds recovery replay work.
pub const DEFAULT_SNAPSHOT_EVERY: u64 = 4;

/// One index's changes as a delta file holds them, decoded.
#[derive(Debug, PartialEq, Eq)]
struct IndexDiff<P> {
    /// Ordinals in the old index of the keys absent now, ascending.
    removed: Vec<u32>,
    /// Entries new or changed (full replacement value), in key order.
    upserts: Vec<StateEntry<P>>,
}

fn key<P>(e: &StateEntry<P>) -> (Time, &P) {
    (e.vs, &e.payload)
}

/// Apply a diff to the index it was taken against, yielding the new
/// canonical index: one pass, entries moved, none cloned. The diff must
/// have passed [`get_index_diff`]'s checks (ordinals ascending and in
/// range, upserts in key order).
fn apply_diff<P: DurablePayload>(
    base: Vec<StateEntry<P>>,
    diff: IndexDiff<P>,
) -> Vec<StateEntry<P>> {
    let mut out = Vec::with_capacity(base.len() + diff.upserts.len() - diff.removed.len());
    let mut removed = diff.removed.into_iter().peekable();
    let mut upserts = diff.upserts.into_iter().peekable();
    for (i, kept) in base.into_iter().enumerate() {
        if removed.next_if(|&r| r as usize == i).is_some() {
            continue;
        }
        while let Some(u) = upserts.next_if(|u| key(u) < key(&kept)) {
            out.push(u);
        }
        out.push(upserts.next_if(|u| key(u) == key(&kept)).unwrap_or(kept));
    }
    out.extend(upserts);
    out
}

/// Decode one index's diff against a base index of `base_len` entries.
/// Everything [`apply_diff`] relies on is checked here, before any base
/// entry is moved: a corrupt delta is a typed error that leaves the image
/// it was meant for intact.
fn get_index_diff<P: DurablePayload>(
    cur: &mut Cursor<'_>,
    base_len: usize,
) -> Result<IndexDiff<P>, DurableError> {
    let n = cur.count(4)?;
    let mut removed = Vec::with_capacity(n);
    for _ in 0..n {
        let ordinal = cur.u32()?;
        if ordinal as usize >= base_len {
            return Err(DurableError::Corrupt(
                "delta removes an ordinal past its base",
            ));
        }
        if removed.last().is_some_and(|&last| last >= ordinal) {
            return Err(DurableError::Corrupt("delta removals not ascending"));
        }
        removed.push(ordinal);
    }
    let n = cur.count(8)?;
    let mut upserts: Vec<StateEntry<P>> = Vec::with_capacity(n);
    for _ in 0..n {
        let e = get_entry(cur)?;
        if upserts.last().is_some_and(|last| key(last) >= key(&e)) {
            return Err(DurableError::Corrupt("delta upserts not in key order"));
        }
        upserts.push(e);
    }
    Ok(IndexDiff { removed, upserts })
}

/// An image's index *shape*: its per-input index count. Deltas only make
/// sense between same-shape images; the store falls back to a snapshot
/// otherwise.
fn shape<P>(img: &MergeStateImage<P>) -> usize {
    img.input_indexes.len()
}

/// Where a store stands in its chain: everything that decides the next
/// save's `(seq, delta)`. The sink keeps a copy so it can answer at the
/// cut what the writer will do with the image later.
#[derive(Clone, Debug)]
struct Chain {
    next_seq: u64,
    snapshot_every: u64,
    since_snapshot: u64,
    /// [`shape`] of the delta base; `None` before the first save.
    base_shape: Option<usize>,
}

impl Chain {
    /// The `(seq, delta)` a save of an image of shape `shape` gets now,
    /// advancing past it.
    fn advance(&mut self, shape: usize) -> (u64, bool) {
        let seq = self.next_seq;
        let delta = self.since_snapshot < self.snapshot_every && self.base_shape == Some(shape);
        self.next_seq = seq + 1;
        self.since_snapshot = if delta { self.since_snapshot + 1 } else { 0 };
        self.base_shape = Some(shape);
        (seq, delta)
    }
}

fn encode_snapshot<P: DurablePayload>(image: &RunImage<P>) -> Vec<u8> {
    let mut file = begin(FileKind::Snapshot);
    put_run_image(&mut file, image);
    seal(file)
}

/// Encode `new` as a delta file extending checkpoint `base_seq`, whose
/// image was `base` (same [shape](CheckpointStore) as `new`).
pub fn encode_delta<P: DurablePayload>(
    base_seq: u64,
    base: &RunImage<P>,
    new: &RunImage<P>,
) -> Vec<u8> {
    let mut image = base.clone();
    let changes = image.fold(new.clone().into());
    delta_file(base_seq, &image, &changes)
}

/// The delta file extending checkpoint `base_seq` to `image`, given what a
/// [`RunImage::fold`] into `image` reported changed.
fn delta_file<P: DurablePayload>(
    base_seq: u64,
    image: &RunImage<P>,
    changes: &[IndexChanges],
) -> Vec<u8> {
    let mut file = begin(FileKind::Delta);
    file.extend_from_slice(&base_seq.to_le_bytes());
    put_exec_image(&mut file, &image.exec);
    put_count(&mut file, image.cursors.len());
    for (next_seq, acked) in &image.cursors {
        file.extend_from_slice(&next_seq.to_le_bytes());
        file.extend_from_slice(&acked.to_le_bytes());
    }
    // The egress image is stored in full: its retained tail is already a
    // compact byte log bounded by the subscribers' acked cursors.
    put_egress_image(&mut file, &image.egress);
    put_merge_skeleton(&mut file, &image.merge);
    debug_assert_eq!(changes.len(), image.merge.indexes().count());
    put_count(&mut file, changes.len());
    for (index, ch) in image.merge.indexes().zip(changes) {
        put_count(&mut file, ch.removed.len());
        for ordinal in &ch.removed {
            file.extend_from_slice(&ordinal.to_le_bytes());
        }
        put_count(&mut file, ch.upserted.len());
        for &at in &ch.upserted {
            put_entry(&mut file, &index[at as usize]);
        }
    }
    seal(file)
}

/// Decode a delta payload that must extend checkpoint `base_seq` and apply
/// it to `image` in place. The payload is decoded and checked in full
/// first; on any error `image` is untouched.
pub fn apply_delta<P: DurablePayload>(
    image: &mut RunImage<P>,
    base_seq: u64,
    payload: &[u8],
) -> Result<(), DurableError> {
    let mut cur = Cursor::new(payload);
    if cur.u64()? != base_seq {
        return Err(DurableError::Corrupt("delta base sequence mismatch"));
    }
    let exec = get_exec_image(&mut cur)?;
    let n = cur.count(16)?;
    let mut cursors = Vec::with_capacity(n);
    for _ in 0..n {
        let next_seq = cur.u64()?;
        cursors.push((next_seq, cur.i64()?));
    }
    let egress = get_egress_image(&mut cur)?;
    let mut merge = get_merge_image::<P>(&mut cur)?;
    if shape(&merge) != shape(&image.merge) {
        return Err(DurableError::Corrupt("delta structure mismatch"));
    }
    if cur.count(8)? != image.merge.indexes().count() {
        return Err(DurableError::Corrupt("delta index count mismatch"));
    }
    let mut diffs = Vec::new();
    for old in image.merge.indexes() {
        diffs.push(get_index_diff::<P>(&mut cur, old.len())?);
    }
    if !cur.is_empty() {
        return Err(DurableError::Corrupt("trailing bytes after delta"));
    }
    // Infallible from here: move the base's entries through the diffs
    // into the decoded skeleton, then replace the image by it.
    let olds = image.merge.indexes_mut();
    for ((slot, old), diff) in merge.indexes_mut().zip(olds).zip(diffs) {
        *slot = apply_diff(std::mem::take(old), diff);
    }
    *image = RunImage {
        merge,
        exec,
        cursors,
        egress,
    };
    Ok(())
}

fn file_name(seq: u64, delta: bool) -> String {
    format!("ck-{seq:08}-{}.lmck", if delta { "delta" } else { "snap" })
}

/// Parse `ck-NNNNNNNN-{snap,delta}.lmck`; returns `(seq, is_delta)`.
fn parse_name(name: &str) -> Option<(u64, bool)> {
    let rest = name.strip_prefix("ck-")?;
    let (seq, kind) = rest.split_at(rest.find('-')?);
    let seq: u64 = seq.parse().ok()?;
    match kind {
        "-snap.lmck" => Some((seq, false)),
        "-delta.lmck" => Some((seq, true)),
        _ => None,
    }
}

/// List `(seq, is_delta)` pairs present in `dir`, ascending by seq.
fn scan(dir: &Path) -> Result<Vec<(u64, bool)>, DurableError> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(parsed) = entry.file_name().to_str().and_then(parse_name) {
            found.push(parsed);
        }
    }
    found.sort_unstable();
    Ok(found)
}

/// What [`CheckpointStore::recover`] restored, and how it got there.
pub struct Recovery<P: DurablePayload> {
    /// Checkpoint sequence of the restored image.
    pub seq: u64,
    /// The snapshot the restored chain starts from; `seq - snap_seq`
    /// deltas were replayed on top of it.
    pub snap_seq: u64,
    /// The restored image.
    pub image: RunImage<P>,
    /// Files skipped to reach a restorable image. Non-empty means the
    /// newest chain was torn, corrupt, or gapped, and recovery kept the
    /// longest intact prefix (possibly of an older snapshot chain).
    pub warnings: Vec<String>,
}

/// The on-disk checkpoint chain for one run.
pub struct CheckpointStore<P: DurablePayload> {
    dir: PathBuf,
    /// Held open for the store's life: every save fsyncs it.
    dir_handle: DirHandle,
    chain: Chain,
    base: Option<RunImage<P>>,
}

impl<P: DurablePayload> CheckpointStore<P> {
    /// Open (or initialise) a checkpoint directory. If checkpoints already
    /// exist, numbering continues after the latest restorable image, which
    /// is loaded as the delta base — a restarted store keeps
    /// delta-chaining, and deltas already on disk count toward the
    /// re-snapshot cadence so repeated restarts cannot grow a chain (and
    /// its recovery replay cost) without bound. Stray `.tmp` files and
    /// tail files recovery could not use (torn, or orphaned behind a torn
    /// snapshot) are removed: the store is about to rewrite those
    /// sequence numbers.
    pub fn create(dir: impl Into<PathBuf>) -> Result<CheckpointStore<P>, DurableError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        remove_temp_files(&dir)?;
        let (next_seq, since_snapshot, base) = match Self::recover(&dir) {
            Ok(r) => {
                for w in &r.warnings {
                    eprintln!("lmerge-durable: {w}");
                }
                for (seq, delta) in scan(&dir)? {
                    if seq > r.seq {
                        std::fs::remove_file(dir.join(file_name(seq, delta)))?;
                    }
                }
                (r.seq + 1, r.seq - r.snap_seq, Some(r.image))
            }
            Err(DurableError::NoCheckpoint) => (0, 0, None),
            Err(e) => return Err(e),
        };
        Ok(CheckpointStore {
            dir_handle: DirHandle::open(&dir)?,
            dir,
            chain: Chain {
                next_seq,
                snapshot_every: DEFAULT_SNAPSHOT_EVERY,
                since_snapshot,
                base_shape: base.as_ref().map(|b| shape(&b.merge)),
            },
            base,
        })
    }

    /// Override how many deltas may chain after a snapshot.
    #[must_use]
    pub fn with_snapshot_every(mut self, every: u64) -> CheckpointStore<P> {
        self.chain.snapshot_every = every.max(1);
        self
    }

    /// The directory this store writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The sequence number the next [`save`](CheckpointStore::save) gets.
    pub fn next_seq(&self) -> u64 {
        self.chain.next_seq
    }

    /// Persist one image. Returns `(seq, was_delta)`.
    pub fn save(&mut self, image: &RunImage<P>) -> Result<(u64, bool), DurableError> {
        self.save_cut(image.clone().into())
            .map(|(seq, delta, _)| (seq, delta))
    }

    /// Persist one cut: fold it into the delta base, then write the base
    /// as a snapshot or what the fold changed as a delta. Returns `(seq,
    /// was_delta, file bytes)`. A failed write leaves the base at the cut
    /// and makes the next save a snapshot.
    pub(crate) fn save_cut(&mut self, cut: RunCut<P>) -> Result<(u64, bool, usize), DurableError> {
        let mut chain = self.chain.clone();
        let (seq, delta) = chain.advance(shape(&cut.merge.image));
        // Without a base the chain is at its start: a snapshot.
        let (base, changes) = match self.base.take() {
            Some(mut base) => {
                let changes = base.fold(cut);
                (base, changes)
            }
            None => (cut.into_image(), Vec::new()),
        };
        let bytes = if delta {
            delta_file(seq - 1, &base, &changes)
        } else {
            encode_snapshot(&base)
        };
        self.base = Some(base);
        let path = self.dir.join(file_name(seq, delta));
        if let Err(e) = write_atomic(&self.dir_handle, &path, &bytes) {
            self.chain.base_shape = None;
            return Err(e);
        }
        self.chain = chain;
        Ok((seq, delta, bytes.len()))
    }

    /// Load the most recent restorable image from `dir`. Any corruption
    /// worked around (see [`recover`](CheckpointStore::recover)) is
    /// reported to stderr; only a directory with *no* restorable image at
    /// all is an error.
    pub fn load_latest(dir: impl AsRef<Path>) -> Result<(u64, RunImage<P>), DurableError> {
        let r = Self::recover(dir.as_ref())?;
        for w in &r.warnings {
            eprintln!("lmerge-durable: {w}");
        }
        Ok((r.seq, r.image))
    }

    /// Restore the newest image the directory's files can still produce.
    ///
    /// Walks snapshot chains newest-first. Within a chain, deltas are
    /// replayed in order until the first torn, corrupt, or missing file —
    /// the intact prefix up to that point is kept (a crash can tear at
    /// most the file being written, so this loses only the newest cut,
    /// not recoverability). If the newest snapshot itself is unreadable,
    /// the previous chain is tried in full. Everything skipped is
    /// recorded in [`Recovery::warnings`]. Errors only when no snapshot
    /// decodes at all: [`DurableError::NoCheckpoint`] for an empty or
    /// missing directory, otherwise the newest chain's decode error.
    pub fn recover(dir: impl AsRef<Path>) -> Result<Recovery<P>, DurableError> {
        let dir = dir.as_ref();
        let found = match scan(dir) {
            Ok(found) => found,
            Err(DurableError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let snaps: Vec<u64> = found
            .iter()
            .filter(|&&(_, delta)| !delta)
            .map(|&(seq, _)| seq)
            .collect();
        if snaps.is_empty() {
            return Err(DurableError::NoCheckpoint);
        }
        let mut warnings = Vec::new();
        let mut newest_err = None;
        for (i, &snap_seq) in snaps.iter().enumerate().rev() {
            let mut image = match Self::read_snapshot(dir, snap_seq) {
                Ok(image) => image,
                Err(e) => {
                    warnings.push(format!(
                        "snapshot {snap_seq} unreadable ({e}); trying the previous chain"
                    ));
                    if newest_err.is_none() {
                        newest_err = Some(e);
                    }
                    continue;
                }
            };
            // This chain's deltas end where the next snapshot (if any)
            // starts a fresh one.
            let chain_end = snaps.get(i + 1).copied().unwrap_or(u64::MAX);
            let mut at = snap_seq;
            for &(seq, delta) in found
                .iter()
                .filter(|&&(s, d)| d && s > snap_seq && s < chain_end)
            {
                debug_assert!(delta);
                if seq != at + 1 {
                    warnings.push(format!(
                        "delta {} missing; restoring through checkpoint {at}",
                        at + 1
                    ));
                    break;
                }
                match Self::read_delta(dir, &mut image, seq) {
                    Ok(()) => at = seq,
                    Err(e) => {
                        warnings.push(format!(
                            "delta {seq} unreadable ({e}); restoring through checkpoint {at}"
                        ));
                        break;
                    }
                }
            }
            return Ok(Recovery {
                seq: at,
                snap_seq,
                image,
                warnings,
            });
        }
        Err(newest_err.expect("at least one snapshot failed to read"))
    }

    fn read_snapshot(dir: &Path, seq: u64) -> Result<RunImage<P>, DurableError> {
        let bytes = std::fs::read(dir.join(file_name(seq, false)))?;
        let (kind, payload) = open_envelope(&bytes)?;
        if kind != FileKind::Snapshot {
            return Err(DurableError::Corrupt("snapshot file with wrong kind tag"));
        }
        let mut cur = Cursor::new(payload);
        let image = get_run_image(&mut cur)?;
        if !cur.is_empty() {
            return Err(DurableError::Corrupt("trailing bytes after snapshot"));
        }
        Ok(image)
    }

    /// Replay delta `seq` onto `image` in place; `image` is untouched if
    /// the file is unreadable.
    fn read_delta(dir: &Path, image: &mut RunImage<P>, seq: u64) -> Result<(), DurableError> {
        let bytes = std::fs::read(dir.join(file_name(seq, true)))?;
        let (kind, payload) = open_envelope(&bytes)?;
        if kind != FileKind::Delta {
            return Err(DurableError::Corrupt("delta file with wrong kind tag"));
        }
        apply_delta(image, seq - 1, payload)
    }
}

/// One cut on its way to the writer: the cut, the `(seq, delta)` the sink
/// answered for it, and when it was handed over.
type Job<P> = (RunCut<P>, (u64, bool), Instant);

/// The writer thread and the sink's two ends of its depth-one hand-off.
struct Writer<P: DurablePayload> {
    jobs: SyncSender<Job<P>>,
    done: Receiver<Result<(), DurableError>>,
    /// A job was sent and its result not yet received.
    in_flight: bool,
    /// Returns the store when `jobs` closes.
    thread: JoinHandle<CheckpointStore<P>>,
}

impl<P: DurablePayload> Writer<P> {
    fn spawn(mut store: CheckpointStore<P>, metrics: CheckpointMetrics) -> Writer<P> {
        // Capacity one on both channels, and the sink receives a result
        // before it sends the next job: neither side ever blocks in send.
        let (jobs, inbox) = sync_channel::<Job<P>>(1);
        let (outbox, done) = sync_channel(1);
        let thread = std::thread::Builder::new()
            .name("lmerge-ckpt".into())
            .spawn(move || {
                for (cut, told, handed_off) in inbox {
                    let result = store.save_cut(cut).map(|(seq, delta, bytes)| {
                        debug_assert_eq!((seq, delta), told, "the cut's answer is the writer's");
                        metrics.bytes.add(bytes as u64);
                    });
                    metrics
                        .persist_seconds
                        .record_duration(handed_off.elapsed());
                    metrics.inflight.set(0);
                    if outbox.send(result).is_err() {
                        break;
                    }
                }
                store
            })
            .expect("spawn the checkpoint writer thread");
        Writer {
            jobs,
            done,
            in_flight: false,
            thread,
        }
    }
}

/// A [`CheckpointSink`] that persists through a [`CheckpointStore`]:
/// captures on every finite advance of the output stable point, optionally
/// halting at a chosen sequence number (the recovery tests' reproducible
/// kill switch).
///
/// `save` is the *cut*: it polls the cursor sources, decides `(seq,
/// delta)` and hands the cut to a writer thread (started at the first
/// cut, joined by `finish`) that owns the store, folds the cut into its
/// base and does the I/O. The
/// hand-off has depth one — `save` first waits for the previous cut to be
/// durable — and a halting `save` also waits for its own. I/O errors are
/// recorded, not panicked: they surface one cut late, after which the sink
/// wants no more cuts, the run continues uncheckpointed and the caller
/// inspects [`error`](Self::error).
pub struct DurableCheckpointSink<P: DurablePayload> {
    /// The store, except while the writer thread has it.
    store: Option<CheckpointStore<P>>,
    writer: Option<Writer<P>>,
    /// The store's chain position as of the last cut handed over.
    chain: Chain,
    last_stable: Time,
    halt_at: Option<u64>,
    cursor_source: Option<CursorSource>,
    egress_source: Option<EgressSource>,
    metrics: CheckpointMetrics,
    /// When `want` last said yes: the start of the cut being timed.
    cut_started: Option<Instant>,
    /// First persistence error, if any.
    pub error: Option<DurableError>,
}

/// Supplier of live transport resume cursors `(consumed frames, acked
/// stable)` per input, polled at every save.
pub type CursorSource = Box<dyn Fn() -> Vec<(u64, i64)> + Send>;

/// Supplier of the live egress/broadcast image (subscriber cursors plus
/// the retained output tail), polled at every save. Because the broadcast
/// publisher runs on the executor thread, the polled image is exactly
/// consistent with the cut being saved.
pub type EgressSource = Box<dyn Fn() -> EgressImage + Send>;

impl<P: DurablePayload> DurableCheckpointSink<P> {
    /// Wrap a store. `last_stable` starts at the store's restored base
    /// image (if any), so a resumed run does not re-checkpoint the cut it
    /// restored from.
    pub fn new(store: CheckpointStore<P>) -> DurableCheckpointSink<P> {
        let last_stable = store
            .base
            .as_ref()
            .map(|b| b.merge.max_stable)
            .unwrap_or(Time::MIN);
        DurableCheckpointSink {
            chain: store.chain.clone(),
            store: Some(store),
            writer: None,
            last_stable,
            halt_at: None,
            cursor_source: None,
            egress_source: None,
            metrics: CheckpointMetrics::new(&MetricsRegistry::new()),
            cut_started: None,
            error: None,
        }
    }

    /// Halt the run right after checkpoint `seq` is saved.
    #[must_use]
    pub fn halt_after(mut self, seq: u64) -> DurableCheckpointSink<P> {
        self.halt_at = Some(seq);
        self
    }

    /// Poll `source` for fresh transport cursors at every save — the live
    /// networked path, where the consumed-frame counts advance between
    /// cuts (an ingest server's `cursor_handle()` is the natural source).
    #[must_use]
    pub fn with_cursor_source(mut self, source: CursorSource) -> DurableCheckpointSink<P> {
        self.cursor_source = Some(source);
        self
    }

    /// Poll `source` for the live egress/broadcast image at every save —
    /// a subscription server's `egress_handle()` is the natural source.
    #[must_use]
    pub fn with_egress_source(mut self, source: EgressSource) -> DurableCheckpointSink<P> {
        self.egress_source = Some(source);
        self
    }

    /// Feed the `lmerge_checkpoint_*` wall-clock series of a live registry
    /// (see [`CheckpointMetrics`]); without this they go nowhere.
    #[must_use]
    pub fn with_metrics(mut self, metrics: CheckpointMetrics) -> DurableCheckpointSink<P> {
        self.metrics = metrics;
        self
    }

    /// The wrapped store. It is with the writer thread from a run's first
    /// cut until the executor calls [`CheckpointSink::finish`]; between
    /// runs it is here.
    pub fn store(&self) -> &CheckpointStore<P> {
        self.store
            .as_ref()
            .expect("the writer thread holds the store until CheckpointSink::finish")
    }

    fn fail(&mut self, e: DurableError) {
        self.metrics.failed.set(1);
        self.error.get_or_insert(e);
    }

    /// Wait until the cut in flight, if any, is durable (or has failed).
    fn settle(&mut self) {
        let Some(writer) = &mut self.writer else {
            return;
        };
        if std::mem::take(&mut writer.in_flight) {
            match writer.done.recv() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => self.fail(e),
                Err(_) => self.fail(writer_died()),
            }
        }
    }
}

fn writer_died() -> DurableError {
    DurableError::Io(std::io::Error::other("checkpoint writer thread died"))
}

impl<P: DurablePayload> CheckpointSink<P> for DurableCheckpointSink<P> {
    fn enabled(&self) -> bool {
        true
    }

    fn want(&mut self, stable: Time, _delivered: u64) -> bool {
        if self.error.is_none() && stable > self.last_stable && stable != Time::INFINITY {
            self.last_stable = stable;
            self.cut_started = Some(Instant::now());
            true
        } else {
            false
        }
    }

    fn save(&mut self, mut cut: RunCut<P>) -> Option<CheckpointSave> {
        let cursors = self.cursor_source.as_ref().map(|source| source());
        if let Some(cursors) = cursors.filter(|c| !c.is_empty() && cut.cursors.is_empty()) {
            cut.cursors = cursors;
            // A transport cursor counts frames the merge side has taken
            // from its input, but the executor offers the cut with each
            // input's next batch already staged — taken, yet absent from
            // the merge cut. Persist the delivered prefix instead: drop the
            // staged frame from the count, so a restored server's resume
            // handshake replays it rather than skipping it.
            for (i, cursor) in cut.cursors.iter_mut().enumerate() {
                if cut.exec.staged.get(i).is_some_and(Option::is_some) {
                    cursor.0 = cursor.0.saturating_sub(1);
                }
            }
        }
        if let Some(source) = &self.egress_source {
            cut.egress = source();
        }
        // Depth one: the previous cut is durable (or has failed, which
        // ends checkpointing) before this one is handed over.
        self.settle();
        if self.error.is_some() {
            return None;
        }
        let (seq, delta) = self.chain.advance(shape(&cut.merge.image));
        let halt = self.halt_at == Some(seq);
        let writer = self.writer.get_or_insert_with(|| {
            let store = self.store.take().expect("the store is here between runs");
            Writer::spawn(store, self.metrics.clone())
        });
        self.metrics.inflight.set(1);
        if writer
            .jobs
            .send((cut, (seq, delta), Instant::now()))
            .is_err()
        {
            self.fail(writer_died());
            return None;
        }
        writer.in_flight = true;
        if halt {
            // A kill modeled *after* checkpoint `seq`: it must be on disk.
            self.settle();
            if self.error.is_some() {
                return None;
            }
        }
        if let Some(started) = self.cut_started.take() {
            self.metrics.cut_seconds.record_duration(started.elapsed());
        }
        Some(CheckpointSave { seq, delta, halt })
    }

    fn finish(&mut self) {
        self.settle();
        if let Some(writer) = self.writer.take() {
            drop(writer.jobs);
            match writer.thread.join() {
                Ok(store) => {
                    // Equal unless a cut failed: the store did not advance.
                    self.chain = store.chain.clone();
                    self.store = Some(store);
                }
                Err(_) => self.fail(writer_died()),
            }
        }
    }
}

impl<P: DurablePayload> Drop for DurableCheckpointSink<P> {
    /// A sink dropped mid-run (the run panicked) still joins its writer.
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmerge_core::VariantKind;
    use lmerge_engine::ExecutorImage;
    use lmerge_temporal::VTime;

    fn entry(k: i32, vs: i64, ve: i64) -> StateEntry<i32> {
        StateEntry {
            vs: Time(vs),
            payload: k,
            per_input: vec![(0, vec![(Time(ve), 1)])],
            output: vec![(Time(ve), 1)],
        }
    }

    fn run_image(entries: Vec<StateEntry<i32>>, stable: i64, delivered: u64) -> RunImage<i32> {
        let mut merge = MergeStateImage::empty(VariantKind::R3);
        merge.max_stable = Time(stable);
        merge.entries = entries;
        RunImage {
            merge,
            exec: ExecutorImage {
                lmerge_ready: VTime(delivered * 10),
                delivered,
                seq: delivered,
                last_feedback: Time::MIN,
                input_stable_hw: vec![Time(stable)],
                output_stable_hw: Time(stable),
                pulls: vec![delivered],
                staged: vec![None],
            },
            cursors: vec![(delivered, stable)],
            egress: EgressImage {
                cursors: vec![(1, delivered)],
                base_seq: delivered,
                next_seq: delivered,
                stable: Time(stable),
                frames: Vec::new(),
            },
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lmerge-durable-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// What a delta records of `new` against `old` (the fold of `new`'s
    /// whole cut), as `get_index_diff` hands it to `apply_diff`.
    fn diff_index(old: &[StateEntry<i32>], new: &[StateEntry<i32>]) -> IndexDiff<i32> {
        let image = |entries: &[StateEntry<i32>]| {
            let mut img = MergeStateImage::empty(VariantKind::R3);
            img.entries = entries.to_vec();
            img
        };
        let mut folded = image(old);
        let changes = folded.fold(image(new).into()).remove(0);
        assert_eq!(folded.entries, new, "the fold is the new index");
        IndexDiff {
            removed: changes.removed,
            upserts: changes
                .upserted
                .iter()
                .map(|&at| folded.entries[at as usize].clone())
                .collect(),
        }
    }

    #[test]
    fn diff_and_apply_are_inverse() {
        let old = vec![entry(1, 10, 20), entry(2, 11, 21), entry(3, 12, 22)];
        let mut changed = entry(2, 11, 21);
        changed.output = vec![(Time(25), 2)];
        let new = vec![entry(1, 10, 20), changed, entry(4, 13, 23)];
        let diff = diff_index(&old, &new);
        assert_eq!(diff.removed, vec![2], "the removed key by its ordinal");
        assert_eq!(diff.upserts.len(), 2);
        assert_eq!(apply_diff(old, diff), new);
    }

    /// Removals at the first, the last and adjacent ordinals, upserts
    /// before, between and after what is kept, and the two empty edges.
    #[test]
    fn ordinal_removals_apply_at_every_position() {
        let e = |k: i32| entry(k, 10 + k as i64, 50);
        let base: Vec<_> = [1, 2, 3, 4, 5, 6].into_iter().map(e).collect();
        let cases: [(&[i32], &[u32]); 7] = [
            (&[2, 3, 4, 5, 6], &[0]),
            (&[1, 2, 3, 4, 5], &[5]),
            (&[1, 4, 5, 6], &[1, 2]),
            (&[0, 3, 7], &[0, 1, 3, 4, 5]),
            (&[], &[0, 1, 2, 3, 4, 5]),
            (&[1, 2, 3, 4, 5, 6], &[]),
            (&[7, 8], &[0, 1, 2, 3, 4, 5]),
        ];
        for (keys, removed) in cases {
            let new: Vec<_> = keys.iter().copied().map(e).collect();
            let diff = diff_index(&base, &new);
            assert_eq!(diff.removed, removed, "{keys:?}");
            assert_eq!(apply_diff(base.clone(), diff), new, "{keys:?}");
        }
        let grown = diff_index(&[], &base);
        assert_eq!(apply_diff(Vec::new(), grown), base);
    }

    #[test]
    fn snapshot_then_deltas_then_snapshot_restores_exactly() {
        let images = [
            run_image(vec![entry(1, 10, 20)], 5, 1),
            run_image(vec![entry(1, 10, 20), entry(2, 11, 21)], 8, 2),
            run_image(vec![entry(2, 11, 21), entry(3, 12, 22)], 11, 3),
            run_image(vec![entry(3, 12, 22)], 14, 4),
        ];
        // Every prefix of the chain restores exactly.
        for upto in 0..images.len() {
            let dir = tmp_dir(&format!("chain{upto}"));
            let mut store: CheckpointStore<i32> = CheckpointStore::create(&dir)
                .unwrap()
                .with_snapshot_every(2);
            let mut kinds = Vec::new();
            for img in &images[..=upto] {
                let (_, delta) = store.save(img).unwrap();
                kinds.push(delta);
            }
            if upto == images.len() - 1 {
                // Snapshot, two deltas, then the snapshot_every=2 bound
                // forces a fresh snapshot.
                assert_eq!(kinds, vec![false, true, true, false]);
            }
            let (seq, image) = CheckpointStore::<i32>::load_latest(&dir).unwrap();
            assert_eq!(seq as usize, upto);
            assert_eq!(image.merge, images[upto].merge);
            assert_eq!(image.exec, images[upto].exec);
            assert_eq!(image.cursors, images[upto].cursors);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// A failed write has already folded its cut into the base, so the
    /// next save is a snapshot at the same sequence number — never a
    /// delta against a base the directory does not hold.
    #[test]
    fn a_failed_write_makes_the_next_save_a_snapshot() {
        let dir = tmp_dir("failed-write");
        let mut store: CheckpointStore<i32> = CheckpointStore::create(&dir).unwrap();
        let images = [
            run_image(vec![entry(1, 10, 20)], 5, 1),
            run_image(vec![entry(1, 10, 20), entry(2, 11, 21)], 8, 2),
            run_image(vec![entry(2, 11, 21)], 11, 3),
        ];
        assert_eq!(store.save(&images[0]).unwrap(), (0, false));
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(store.save(&images[1]).is_err(), "the directory is gone");
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(store.save(&images[2]).unwrap(), (1, false));
        let (seq, restored) = CheckpointStore::<i32>::load_latest(&dir).unwrap();
        assert_eq!(seq, 1);
        assert_eq!(restored.merge, images[2].merge);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopened_store_continues_numbering() {
        let dir = tmp_dir("reopen");
        let mut store: CheckpointStore<i32> = CheckpointStore::create(&dir).unwrap();
        store
            .save(&run_image(vec![entry(1, 10, 20)], 5, 1))
            .unwrap();
        drop(store);
        let mut store: CheckpointStore<i32> = CheckpointStore::create(&dir).unwrap();
        assert_eq!(store.next_seq(), 1);
        let (seq, delta) = store
            .save(&run_image(vec![entry(1, 10, 20), entry(2, 11, 21)], 8, 2))
            .unwrap();
        // The reopened store restored its base, so it can delta.
        assert_eq!((seq, delta), (1, true));
        let (seq, image) = CheckpointStore::<i32>::load_latest(&dir).unwrap();
        assert_eq!(seq, 1);
        assert_eq!(image.merge.entries.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_dir_reports_no_checkpoint() {
        let dir = tmp_dir("empty");
        assert!(matches!(
            CheckpointStore::<i32>::load_latest(&dir),
            Err(DurableError::NoCheckpoint)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        assert!(matches!(
            CheckpointStore::<i32>::load_latest(&dir),
            Err(DurableError::NoCheckpoint)
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn saved_cursors_discount_staged_frames() {
        let dir = tmp_dir("staged-cursors");
        let store: CheckpointStore<i32> = CheckpointStore::create(&dir).unwrap();
        let mut sink = DurableCheckpointSink::new(store)
            .with_cursor_source(Box::new(|| vec![(5, 100), (7, 200), (9, 300)]));
        let mut image = run_image(vec![entry(1, 10, 20)], 5, 1);
        image.cursors = Vec::new();
        // Inputs 0 and 2 have a frame taken from their input but still
        // staged in the delivery heap; input 1 was drained.
        image.exec.staged = vec![Some((VTime(50), 4)), None, Some((VTime(60), 6))];
        image.exec.pulls = vec![5, 7, 9];
        let saved = sink.save(image.into()).expect("the cut is accepted");
        sink.finish();
        assert!(sink.error.is_none(), "{:?}", sink.error);
        assert_eq!(saved.seq, 0);
        let (_, restored) = CheckpointStore::<i32>::load_latest(&dir).unwrap();
        // The staged frames never reached the merge image, so the
        // persisted cursors must not count them: a restore replays each.
        assert_eq!(restored.cursors, vec![(4, 100), (7, 200), (8, 300)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_newest_delta_restores_the_intact_prefix() {
        let dir = tmp_dir("torn-delta");
        let images = [
            run_image(vec![entry(1, 10, 20)], 5, 1),
            run_image(vec![entry(1, 10, 20), entry(2, 11, 21)], 8, 2),
            run_image(vec![entry(3, 12, 22)], 11, 3),
        ];
        let mut store: CheckpointStore<i32> = CheckpointStore::create(&dir).unwrap();
        for img in &images {
            store.save(img).unwrap();
        }
        // Tear the newest delta, as an unsynced power loss would.
        let path = dir.join(file_name(2, true));
        let whole = std::fs::read(&path).unwrap();
        std::fs::write(&path, &whole[..whole.len() / 2]).unwrap();
        let r = CheckpointStore::<i32>::recover(&dir).unwrap();
        assert_eq!((r.seq, r.snap_seq), (1, 0));
        assert_eq!(r.image.merge, images[1].merge);
        assert_eq!(r.warnings.len(), 1, "the torn file is surfaced");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_newest_snapshot_falls_back_to_the_prior_chain() {
        let dir = tmp_dir("torn-snap");
        let images = [
            run_image(vec![entry(1, 10, 20)], 5, 1),
            run_image(vec![entry(1, 10, 20), entry(2, 11, 21)], 8, 2),
            run_image(vec![entry(3, 12, 22)], 11, 3),
        ];
        let mut store: CheckpointStore<i32> = CheckpointStore::create(&dir)
            .unwrap()
            .with_snapshot_every(1);
        let mut kinds = Vec::new();
        for img in &images {
            kinds.push(store.save(img).unwrap().1);
        }
        assert_eq!(kinds, vec![false, true, false], "snap, delta, snap");
        // Corrupt the newest snapshot: recovery must fall back to the
        // previous chain (snapshot 0 + delta 1) instead of failing.
        let path = dir.join(file_name(2, false));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let r = CheckpointStore::<i32>::recover(&dir).unwrap();
        assert_eq!((r.seq, r.snap_seq), (1, 0));
        assert_eq!(r.image.merge, images[1].merge);
        assert!(!r.warnings.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopened_store_counts_existing_deltas_toward_the_cadence() {
        let dir = tmp_dir("reopen-cadence");
        let img = |n: u64| run_image(vec![entry(n as i32, 10, 20)], n as i64 * 3, n);
        let mut store: CheckpointStore<i32> = CheckpointStore::create(&dir)
            .unwrap()
            .with_snapshot_every(2);
        assert!(!store.save(&img(1)).unwrap().1, "snapshot 0");
        assert!(store.save(&img(2)).unwrap().1, "delta 1");
        drop(store);
        // A restart must not reset the cadence: one more delta fits, then
        // the on-disk chain length forces a snapshot.
        let mut store: CheckpointStore<i32> = CheckpointStore::create(&dir)
            .unwrap()
            .with_snapshot_every(2);
        assert_eq!(store.save(&img(3)).unwrap(), (2, true), "delta 2");
        assert_eq!(store.save(&img(4)).unwrap(), (3, false), "forced snapshot");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_prunes_stray_tmp_and_unreachable_tail_files() {
        let dir = tmp_dir("prune");
        let mut store: CheckpointStore<i32> = CheckpointStore::create(&dir).unwrap();
        store
            .save(&run_image(vec![entry(1, 10, 20)], 5, 1))
            .unwrap();
        // A crash mid-write leaves a temp file; a torn tail delta is
        // unreachable once recovery stops before it.
        std::fs::write(dir.join("ck-00000009-snap.lmck.tmp"), b"partial").unwrap();
        std::fs::write(dir.join(file_name(1, true)), b"garbage").unwrap();
        let store: CheckpointStore<i32> = CheckpointStore::create(&dir).unwrap();
        assert_eq!(
            store.next_seq(),
            1,
            "numbering continues after the recovered cut"
        );
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(names, vec!["ck-00000000-snap.lmck".to_string()]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_checkpoint_is_a_typed_error() {
        let dir = tmp_dir("corrupt");
        let mut store: CheckpointStore<i32> = CheckpointStore::create(&dir).unwrap();
        store
            .save(&run_image(vec![entry(1, 10, 20)], 5, 1))
            .unwrap();
        let path = dir.join(file_name(0, false));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            CheckpointStore::<i32>::load_latest(&dir),
            Err(DurableError::Checksum { .. })
        ));
        // Truncation too.
        let whole = std::fs::read(&path).unwrap();
        std::fs::write(&path, &whole[..whole.len() - 3]).unwrap();
        assert!(CheckpointStore::<i32>::load_latest(&dir).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A sink that pulls its checkpoint directory out from under the
    /// writer right after cut `after` is durable.
    struct PullTheDisk {
        inner: DurableCheckpointSink<i32>,
        dir: PathBuf,
        after: u64,
    }

    impl CheckpointSink<i32> for PullTheDisk {
        fn enabled(&self) -> bool {
            true
        }
        fn want(&mut self, stable: Time, delivered: u64) -> bool {
            self.inner.want(stable, delivered)
        }
        fn save(&mut self, cut: RunCut<i32>) -> Option<CheckpointSave> {
            let saved = self.inner.save(cut)?;
            if saved.seq == self.after {
                self.inner.settle();
                std::fs::remove_dir_all(&self.dir).unwrap();
            }
            Some(saved)
        }
        fn finish(&mut self) {
            self.inner.finish();
        }
    }

    #[test]
    fn a_failed_checkpoint_ends_checkpointing_and_the_run_goes_on() {
        use lmerge_core::{LMergeR3, LogicalMerge, MergePolicy};
        use lmerge_engine::{MergeRun, NoHooks, Query, RunConfig, TimedElement};
        use lmerge_obs::{TraceEvent, Tracer};
        use lmerge_temporal::Element;

        let dir = tmp_dir("enospc");
        let registry = MetricsRegistry::new();
        let store: CheckpointStore<i32> = CheckpointStore::create(&dir).unwrap();
        let mut sink = PullTheDisk {
            inner: DurableCheckpointSink::new(store)
                .with_metrics(CheckpointMetrics::new(&registry)),
            dir,
            after: 1,
        };
        // Eight finite stable advances: eight cuts, were the disk to hold.
        let mut feed = Vec::new();
        for i in 0..8i64 {
            let at = VTime(i as u64 * 20);
            feed.push(TimedElement::new(
                at,
                Element::insert(i as i32, i * 2 + 1, i * 2 + 40),
            ));
            feed.push(TimedElement::new(
                at.advance(10),
                Element::stable(i * 2 + 2),
            ));
        }
        feed.push(TimedElement::new(
            VTime(200),
            Element::stable(Time::INFINITY),
        ));
        let lmerge: Box<dyn LogicalMerge<i32>> =
            Box::new(LMergeR3::with_policy(1, MergePolicy::paper_default()));
        let mut trace = Tracer::new();
        let metrics = MergeRun::new(vec![Query::passthrough(feed)], lmerge, RunConfig::default())
            .run_checkpointed(&mut trace, &mut NoHooks, &mut sink);

        assert!(metrics.output_complete_at.is_some(), "the run goes on");
        let taken: Vec<u64> = trace
            .events()
            .filter_map(|e| match e {
                TraceEvent::CheckpointTaken { seq, .. } => Some(*seq),
                _ => None,
            })
            .collect();
        // Cut 2 was handed over before its failure could be known (the
        // one-cut lag of the hand-off); cut 3 learned of it and was
        // refused, and no cut was wanted after that.
        assert_eq!(taken, vec![0, 1, 2], "no seq-0 phantom, no retry storm");
        let sink = sink.inner;
        assert!(
            matches!(sink.error, Some(DurableError::Io(_))),
            "{:?}",
            sink.error
        );
        assert_eq!(registry.max_value("lmerge_checkpoint_failed"), Some(1.0));
        assert_eq!(registry.max_value("lmerge_checkpoint_inflight"), Some(0.0));
        assert_eq!(
            registry.sum_value("lmerge_checkpoint_persist_seconds_count"),
            Some(3.0),
            "the writer was asked three times, not eight"
        );
        assert_eq!(sink.store().next_seq(), 2, "the store never got past cut 1");
        let mut sink = sink;
        assert!(!sink.want(Time(1_000), 99), "a failed sink wants nothing");
    }
}
