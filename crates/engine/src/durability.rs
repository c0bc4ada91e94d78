//! Checkpoint capture and resume: the executor side of the durability
//! contract.
//!
//! A checkpoint is a consistent cut through the whole run — the merge
//! operator's logical state ([`MergeStateImage`]) *plus* the executor's
//! scheduling state ([`ExecutorImage`]). Either half alone is useless: the
//! merge image without the delivery cursor replays duplicates; the cursor
//! without the merge state replays against an empty index. [`RunImage`]
//! bundles both (and optional transport resume cursors for networked
//! inputs) so the durable store persists one atomic unit.
//!
//! The executor offers the cut to a [`CheckpointSink`] at the end of each
//! delivery iteration, as a [`RunCut`]: the merge part is a [`MergeCut`],
//! what the merge changed since the previous cut, which the sink folds into
//! the image it keeps ([`RunImage::fold`]). The sink decides *when* to capture (`want`), *how*
//! to persist (`save` — a full snapshot or a delta, on this thread or
//! handed to another, is the sink's business), and *whether the run
//! survives* (`save` may halt the run, which is how the crash-recovery
//! tests model a kill at an exact, reproducible point). The executor only
//! *cuts*: `save` owns the image and may return before it is durable, so
//! the run's end calls `finish` to let the sink drain what it still
//! holds. Like tracing and hooks, the default
//! [`NoCheckpoint`] is statically disabled and monomorphizes away.
//!
//! Resume is replay-based: [`ExecutorImage`] records how many batches each
//! query had produced (`pulls`) and which batch sat staged in the delivery
//! heap (`staged`), not the batches themselves. Queries are deterministic
//! functions of their sources, so `MergeRun::resumed` rebuilds the exact
//! pre-kill heap by re-pulling and discarding — the restored run's trace is
//! byte-identical to the tail of a run that never died.

use lmerge_core::{IndexChanges, MergeCut, MergeStateImage};
use lmerge_temporal::{Payload, Time, VTime};
use std::sync::Arc;

/// The executor's scheduling state at a checkpoint: everything `run` needs
/// to continue mid-stream, minus the batches themselves (replayed from the
/// queries' deterministic sources).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecutorImage {
    /// Virtual time at which the merge's core frees up.
    pub lmerge_ready: VTime,
    /// Batches delivered so far (drives memory-sample cadence).
    pub delivered: u64,
    /// Next heap sequence number (keeps tie-breaking identical on resume).
    pub seq: u64,
    /// Last feedback point propagated to the queries.
    pub last_feedback: Time,
    /// Per-input stable-point high-water marks (trace dedup state).
    pub input_stable_hw: Vec<Time>,
    /// Output stable-point high-water mark (trace dedup state).
    pub output_stable_hw: Time,
    /// Per-query count of successful `next_batch` pulls so far.
    pub pulls: Vec<u64>,
    /// Per-query staged batch: its heap key `(deliver_at, seq)`, or `None`
    /// if the query was drained.
    pub staged: Vec<Option<(VTime, u64)>>,
}

/// A shared, immutable run of encoded frames: a broadcast buffer chunk, or
/// bytes read back from a checkpoint file.
pub type FrameRun = Arc<dyn AsRef<[u8]> + Send + Sync>;

/// The egress/broadcast side of a cut: subscriber resume cursors plus the
/// retained tail of the wire-encoded output stream. Payload-agnostic by
/// design — the frames are already serialized bytes, so the engine can
/// carry them through a checkpoint without knowing the subscription
/// layer's types. Empty (`base_seq == next_seq`, no cursors) for runs
/// without subscribers; the executor carries it through untouched.
#[derive(Clone)]
pub struct EgressImage {
    /// Per-subscriber resume cursors — `(subscriber id, acked next seq)`.
    pub cursors: Vec<(u64, u64)>,
    /// Global output sequence of the first frame in `frames`.
    pub base_seq: u64,
    /// Global output sequence the broadcast publisher assigns next.
    pub next_seq: u64,
    /// The output stable point the broadcast buffer had reached.
    pub stable: Time,
    /// Retained wire-encoded `Data` frames covering `[base_seq, next_seq)`,
    /// run after run. The runs are shared, not copied, so an image is
    /// cheap to take; they compare by their bytes, not by how they are cut.
    pub frames: Vec<FrameRun>,
}

impl EgressImage {
    /// The retained frames' bytes, run after run.
    pub fn runs(&self) -> impl Iterator<Item = &[u8]> + '_ {
        self.frames.iter().map(|run| (**run).as_ref())
    }

    /// Total bytes of the retained frames.
    pub fn frames_len(&self) -> usize {
        self.runs().map(<[u8]>::len).sum()
    }

    /// The retained frames as one buffer.
    pub fn frame_bytes(&self) -> Vec<u8> {
        self.runs().flatten().copied().collect()
    }
}

impl Default for EgressImage {
    fn default() -> EgressImage {
        EgressImage {
            cursors: Vec::new(),
            base_seq: 0,
            next_seq: 0,
            stable: Time::MIN,
            frames: Vec::new(),
        }
    }
}

impl PartialEq for EgressImage {
    fn eq(&self, other: &EgressImage) -> bool {
        self.cursors == other.cursors
            && (self.base_seq, self.next_seq, self.stable)
                == (other.base_seq, other.next_seq, other.stable)
            && self.runs().flatten().eq(other.runs().flatten())
    }
}

impl Eq for EgressImage {}

impl std::fmt::Debug for EgressImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EgressImage")
            .field("cursors", &self.cursors)
            .field("base_seq", &self.base_seq)
            .field("next_seq", &self.next_seq)
            .field("stable", &self.stable)
            .field("frame_bytes", &self.frames_len())
            .finish()
    }
}

/// One consistent, restorable cut through a run.
#[derive(Clone, Debug)]
pub struct RunImage<P: Payload> {
    /// The merge operator's exported logical state.
    pub merge: MergeStateImage<P>,
    /// The executor's scheduling state.
    pub exec: ExecutorImage,
    /// Per-input transport resume cursors — for networked inputs, the
    /// ingest session's `(next_seq, acked_stable)` pair so a restarted
    /// server can replay each session from the acked point. Empty for
    /// in-process runs; the executor carries it through untouched.
    pub cursors: Vec<(u64, i64)>,
    /// The output-side mirror of `cursors`: subscriber resume state and
    /// the undelivered egress tail.
    pub egress: EgressImage,
}

impl<P: Payload> RunImage<P> {
    /// Fold `cut` into this image, which holds the run at the previous cut
    /// (see [`MergeStateImage::fold`]): the image becomes the run at `cut`.
    /// Returns, per merge entry index, what changed.
    pub fn fold(&mut self, cut: RunCut<P>) -> Vec<IndexChanges> {
        self.exec = cut.exec;
        self.cursors = cut.cursors;
        self.egress = cut.egress;
        self.merge.fold(cut.merge)
    }
}

/// One cut through a run as the executor offers it: a [`RunImage`] whose
/// merge part is a [`MergeCut`].
#[derive(Clone, Debug)]
pub struct RunCut<P: Payload> {
    /// What the merge operator changed since the previous cut.
    pub merge: MergeCut<P>,
    /// The executor's scheduling state.
    pub exec: ExecutorImage,
    /// Per-input transport resume cursors (see [`RunImage::cursors`]).
    pub cursors: Vec<(u64, i64)>,
    /// The output-side mirror of `cursors` (see [`RunImage::egress`]).
    pub egress: EgressImage,
}

impl<P: Payload> RunCut<P> {
    /// A cut from which a sink with no image yet starts one: the run at
    /// the cut, every merge tier changed, folded into an empty image.
    pub fn into_image(self) -> RunImage<P> {
        let mut merge = MergeStateImage::empty(self.merge.image.kind);
        merge.fold(self.merge);
        RunImage {
            merge,
            exec: self.exec,
            cursors: self.cursors,
            egress: self.egress,
        }
    }
}

impl<P: Payload> From<RunImage<P>> for RunCut<P> {
    /// The cut of a whole image: every merge tier changed.
    fn from(image: RunImage<P>) -> RunCut<P> {
        RunCut {
            merge: image.merge.into(),
            exec: image.exec,
            cursors: image.cursors,
            egress: image.egress,
        }
    }
}

/// What a [`CheckpointSink::save`] did with the offered image.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckpointSave {
    /// Checkpoint sequence number assigned by the sink (monotone per run;
    /// a resumed run's sink continues the killed run's numbering).
    pub seq: u64,
    /// Whether the image was persisted as a delta against the previous
    /// checkpoint rather than a full snapshot.
    pub delta: bool,
    /// Stop the run right here, without the completion postlude. This is
    /// how the recovery tests model a crash at a reproducible point: the
    /// trace simply ends, exactly as a killed process's would.
    pub halt: bool,
}

/// The executor's checkpointing boundary.
///
/// All methods have defaults adding up to "never checkpoint", so only
/// `enabled`, `want`, and `save` need overriding (and `finish`, by a sink
/// that persists after `save` returns). `want` must be a pure
/// function of its arguments (plus the sink's own deterministic state):
/// the recovery conformance tests rely on the reference run and the
/// killed-and-resumed run offering identical cuts.
pub trait CheckpointSink<P: Payload> {
    /// Whether the executor should consult this sink at all.
    fn enabled(&self) -> bool {
        false
    }

    /// Should a checkpoint be captured now? Called at the end of a
    /// delivery iteration with the merge's current stable point and the
    /// total batches delivered.
    fn want(&mut self, stable: Time, delivered: u64) -> bool {
        let _ = (stable, delivered);
        false
    }

    /// Take one cut to persist; returns what was (or will be) done with
    /// it and whether to halt, or `None` if the cut was *not* persisted —
    /// the executor then records no `CheckpointTaken` for it. A halting
    /// save must not return before its image is durable.
    ///
    /// The cut's merge part holds what changed since the previous cut the
    /// executor took of the same merge (everything, the first time), so a
    /// sink that keeps an image folds every cut it accepts, and accepts no
    /// cut after one it refused.
    fn save(&mut self, cut: RunCut<P>) -> Option<CheckpointSave> {
        let _ = cut;
        None
    }

    /// The run is over (completed or halted): make every image `save`
    /// accepted durable and release what the sink held for the run.
    fn finish(&mut self) {}
}

/// The statically disabled sink: the executor's default.
pub struct NoCheckpoint;

impl<P: Payload> CheckpointSink<P> for NoCheckpoint {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_checkpoint_is_disabled_and_inert() {
        let mut c = NoCheckpoint;
        assert!(!CheckpointSink::<&'static str>::enabled(&c));
        assert!(!CheckpointSink::<&'static str>::want(&mut c, Time(5), 3));
    }
}
