//! Log-structured spill: sorted runs on disk, k-way merged on read.
//!
//! When a robustness policy's `max_live_entries` bound trips, R3/R4 hand
//! the flooding input's half-frozen entries to a
//! [`lmerge_core::SpillHandler`] before demoting it. [`FileSpillHandler`]
//! persists each hand-off as one sorted run file (`run-NNNNNN.lmsp`) — an
//! append-only log of runs, never rewritten in place, in the LSM spirit.
//! [`SpillStore::read_merged`] streams the runs back in global `(Vs,
//! payload)` order through a [`std::collections::BinaryHeap`] of per-run
//! cursors, decoding entries incrementally so only one entry per run is
//! resident at a time.

use crate::codec::{envelope, open_envelope, put_count, Cursor, DurableError, FileKind};
use crate::fsutil::{remove_temp_files, write_atomic, DirHandle};
use crate::image::{get_entry, put_entry};
use crate::payload::DurablePayload;
use lmerge_core::{SpillHandler, StateEntry};
use lmerge_engine::SpillNotices;
use lmerge_temporal::StreamId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::path::{Path, PathBuf};

fn run_name(n: u64) -> String {
    format!("run-{n:06}.lmsp")
}

fn parse_run_name(name: &str) -> Option<u64> {
    name.strip_prefix("run-")?
        .strip_suffix(".lmsp")?
        .parse()
        .ok()
}

/// An append-only directory of sorted spill runs.
pub struct SpillStore {
    dir: PathBuf,
    dir_handle: DirHandle,
    next_run: u64,
}

impl SpillStore {
    /// Open (or initialise) a spill directory, continuing run numbering
    /// after any runs already present. Stray `.tmp` files from a crash
    /// mid-write are removed.
    pub fn create(dir: impl Into<PathBuf>) -> Result<SpillStore, DurableError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        remove_temp_files(&dir)?;
        let mut next_run = 0;
        for entry in std::fs::read_dir(&dir)? {
            if let Some(n) = entry?.file_name().to_str().and_then(parse_run_name) {
                next_run = next_run.max(n + 1);
            }
        }
        Ok(SpillStore {
            dir_handle: DirHandle::open(&dir)?,
            dir,
            next_run,
        })
    }

    /// The directory this store writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Runs written (or found) so far.
    pub fn runs(&self) -> u64 {
        self.next_run
    }

    /// Append one sorted run spilled from `input`. Returns the run number.
    pub fn write_run<P: DurablePayload>(
        &mut self,
        input: StreamId,
        entries: &[StateEntry<P>],
    ) -> Result<u64, DurableError> {
        debug_assert!(
            entries
                .windows(2)
                .all(|w| (w[0].vs, &w[0].payload) <= (w[1].vs, &w[1].payload)),
            "spill runs must arrive sorted by (Vs, payload)"
        );
        let mut payload = Vec::new();
        payload.extend_from_slice(&input.0.to_le_bytes());
        put_count(&mut payload, entries.len());
        for e in entries {
            put_entry(&mut payload, e);
        }
        let n = self.next_run;
        write_atomic(
            &self.dir_handle,
            &self.dir.join(run_name(n)),
            &envelope(FileKind::SpillRun, &payload),
        )?;
        self.next_run = n + 1;
        Ok(n)
    }

    /// Open every run in the directory and return a merged reader that
    /// yields all spilled entries in global `(Vs, payload)` order (ties
    /// broken by run number, i.e. spill order).
    pub fn read_merged<P: DurablePayload>(&self) -> Result<MergedSpill<P>, DurableError> {
        let mut numbers: Vec<u64> = std::fs::read_dir(&self.dir)?
            .filter_map(|e| e.ok()?.file_name().to_str().and_then(parse_run_name))
            .collect();
        numbers.sort_unstable();
        let mut heap = BinaryHeap::new();
        for (idx, n) in numbers.into_iter().enumerate() {
            let bytes = std::fs::read(self.dir.join(run_name(n)))?;
            let (kind, payload) = open_envelope(&bytes)?;
            if kind != FileKind::SpillRun {
                return Err(DurableError::Corrupt("spill run with wrong kind tag"));
            }
            let mut cursor = RunCursor::new(payload.to_vec())?;
            if let Some(entry) = cursor.next_entry()? {
                heap.push(Reverse(HeapItem {
                    entry,
                    run: idx as u64,
                    cursor,
                }));
            }
        }
        Ok(MergedSpill { heap })
    }
}

/// Incremental decoder over one run's payload bytes: the header is read
/// up front, entries one at a time.
struct RunCursor {
    data: Vec<u8>,
    pos: usize,
    left: usize,
    input: StreamId,
}

impl RunCursor {
    fn new(data: Vec<u8>) -> Result<RunCursor, DurableError> {
        let mut cur = Cursor::new(&data);
        let input = StreamId(cur.u32()?);
        let left = cur.count(8)?;
        let pos = data.len() - cur.remaining();
        Ok(RunCursor {
            data,
            pos,
            left,
            input,
        })
    }

    fn next_entry<P: DurablePayload>(&mut self) -> Result<Option<StateEntry<P>>, DurableError> {
        if self.left == 0 {
            if self.pos != self.data.len() {
                return Err(DurableError::Corrupt("trailing bytes after spill run"));
            }
            return Ok(None);
        }
        let mut cur = Cursor::new(&self.data[self.pos..]);
        let entry = get_entry(&mut cur)?;
        self.pos = self.data.len() - cur.remaining();
        self.left -= 1;
        Ok(Some(entry))
    }
}

struct HeapItem<P> {
    entry: StateEntry<P>,
    run: u64,
    cursor: RunCursor,
}

impl<P: Ord> PartialEq for HeapItem<P> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl<P: Ord> Eq for HeapItem<P> {}
impl<P: Ord> PartialOrd for HeapItem<P> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<P: Ord> Ord for HeapItem<P> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.entry.vs, &self.entry.payload, self.run).cmp(&(
            other.entry.vs,
            &other.entry.payload,
            other.run,
        ))
    }
}

/// A k-way merged stream over every run in a [`SpillStore`].
///
/// Yields `(source input, entry)` pairs in global `(Vs, payload)` order.
/// Errors surface through the `Result` items, after which iteration ends.
pub struct MergedSpill<P> {
    heap: BinaryHeap<Reverse<HeapItem<P>>>,
}

impl<P: DurablePayload> Iterator for MergedSpill<P> {
    type Item = Result<(StreamId, StateEntry<P>), DurableError>;

    fn next(&mut self) -> Option<Self::Item> {
        let Reverse(mut item) = self.heap.pop()?;
        let input = item.cursor.input;
        match item.cursor.next_entry() {
            Ok(Some(next)) => {
                let out = std::mem::replace(&mut item.entry, next);
                self.heap.push(Reverse(item));
                Some(Ok((input, out)))
            }
            Ok(None) => Some(Ok((input, item.entry))),
            Err(e) => {
                self.heap.clear();
                Some(Err(e))
            }
        }
    }
}

/// A [`SpillHandler`] that persists demoted state through a [`SpillStore`]
/// and (optionally) posts a notice for the executor to stamp into the
/// trace. Write failures decline the spill (the merge then demotes by
/// dropping, exactly as without a handler) and are recorded in
/// [`error`](Self::error).
pub struct FileSpillHandler<P: DurablePayload> {
    store: SpillStore,
    notices: Option<SpillNotices>,
    /// First write error, if any.
    pub error: Option<DurableError>,
    _marker: std::marker::PhantomData<fn(P)>,
}

impl<P: DurablePayload> FileSpillHandler<P> {
    /// Wrap a store.
    pub fn new(store: SpillStore) -> FileSpillHandler<P> {
        FileSpillHandler {
            store,
            notices: None,
            error: None,
            _marker: std::marker::PhantomData,
        }
    }

    /// Post spill notices into `notices` (the executor drains and traces
    /// them as `StateSpilled` events).
    #[must_use]
    pub fn with_notices(mut self, notices: SpillNotices) -> FileSpillHandler<P> {
        self.notices = Some(notices);
        self
    }
}

impl<P: DurablePayload> SpillHandler<P> for FileSpillHandler<P> {
    fn spill(&mut self, input: StreamId, run: &[StateEntry<P>]) -> bool {
        match self.store.write_run(input, run) {
            Ok(_) => {
                if let Some(n) = &self.notices {
                    n.notify(input.0, run.len() as u64);
                }
                true
            }
            Err(e) => {
                if self.error.is_none() {
                    self.error = Some(e);
                }
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmerge_temporal::Time;

    fn entry(k: i32, vs: i64) -> StateEntry<i32> {
        StateEntry {
            vs: Time(vs),
            payload: k,
            per_input: vec![(0, vec![(Time(vs + 3), 1)])],
            output: vec![],
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lmerge-spill-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn k_way_merge_restores_global_order() {
        let dir = tmp_dir("merge");
        let mut store = SpillStore::create(&dir).unwrap();
        store
            .write_run(StreamId(0), &[entry(1, 10), entry(2, 40), entry(1, 70)])
            .unwrap();
        store
            .write_run(StreamId(1), &[entry(5, 20), entry(6, 50)])
            .unwrap();
        store.write_run(StreamId(2), &[entry(9, 30)]).unwrap();
        store.write_run::<i32>(StreamId(0), &[]).unwrap(); // empty runs are fine
        let merged: Vec<(StreamId, StateEntry<i32>)> = store
            .read_merged::<i32>()
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        let keys: Vec<(i64, i32, u32)> = merged
            .iter()
            .map(|(s, e)| (e.vs.0, e.payload, s.0))
            .collect();
        assert_eq!(
            keys,
            vec![
                (10, 1, 0),
                (20, 5, 1),
                (30, 9, 2),
                (40, 2, 0),
                (50, 6, 1),
                (70, 1, 0),
            ]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn merge_ties_break_by_run_order() {
        let dir = tmp_dir("ties");
        let mut store = SpillStore::create(&dir).unwrap();
        store.write_run(StreamId(3), &[entry(7, 10)]).unwrap();
        store.write_run(StreamId(8), &[entry(7, 10)]).unwrap();
        let merged: Vec<(StreamId, StateEntry<i32>)> = store
            .read_merged::<i32>()
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(merged[0].0, StreamId(3));
        assert_eq!(merged[1].0, StreamId(8));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_handler_claims_spills_and_posts_notices() {
        let dir = tmp_dir("handler");
        let notices = SpillNotices::new();
        let mut handler: FileSpillHandler<i32> =
            FileSpillHandler::new(SpillStore::create(&dir).unwrap()).with_notices(notices.clone());
        assert!(handler.spill(StreamId(2), &[entry(1, 10), entry(2, 20)]));
        assert!(handler.spill(StreamId(0), &[entry(3, 5)]));
        assert_eq!(notices.drain(), vec![(2, 2), (0, 1)]);
        let store = SpillStore::create(&dir).unwrap();
        assert_eq!(store.runs(), 2);
        let merged: Vec<(StreamId, StateEntry<i32>)> = store
            .read_merged::<i32>()
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(merged.len(), 3);
        assert_eq!(merged[0].0, StreamId(0)); // vs=5 from input 0 first
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_run_yields_typed_error() {
        let dir = tmp_dir("corrupt");
        let mut store = SpillStore::create(&dir).unwrap();
        store.write_run(StreamId(0), &[entry(1, 10)]).unwrap();
        let path = dir.join(run_name(0));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() - 12;
        bytes[mid] ^= 0x80;
        std::fs::write(&path, &bytes).unwrap();
        assert!(store.read_merged::<i32>().is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
