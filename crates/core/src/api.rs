//! The common interface of every LMerge variant.

use crate::stats::{InputCounters, MergeStats};
use lmerge_properties::RLevel;
use lmerge_temporal::{Element, Payload, StreamId, Time};

/// Per-batch summary computed in one pass: element-kind counts and the
/// largest `Vs` of the data elements. Producers (the engine's `Query`)
/// compute it once per batch; consumers use it to hoist per-batch
/// invariants out of the per-element loop — most importantly the O(1)
/// frozen-prefix discard of [`LogicalMerge::push_batch`]: a batch with no
/// punctuation whose `max_vs` lies below both the operator's `MaxStable`
/// and the index's smallest live `Vs` can be dropped whole, since every
/// element would individually resolve to "stale, no node".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchMeta {
    /// Insert elements in the batch.
    pub inserts: u32,
    /// Adjust elements in the batch.
    pub adjusts: u32,
    /// Stable (punctuation) elements in the batch.
    pub stables: u32,
    /// Largest `Vs` among data elements (`Time::MIN` if none).
    pub max_vs: Time,
}

impl Default for BatchMeta {
    fn default() -> BatchMeta {
        BatchMeta {
            inserts: 0,
            adjusts: 0,
            stables: 0,
            max_vs: Time::MIN,
        }
    }
}

impl BatchMeta {
    /// Summarize a batch in a single pass.
    pub fn of<P: Payload>(elements: &[Element<P>]) -> BatchMeta {
        let mut meta = BatchMeta::default();
        for e in elements {
            match e {
                Element::Insert(ev) => {
                    meta.inserts += 1;
                    meta.max_vs = meta.max_vs.max(ev.vs);
                }
                Element::Adjust { vs, .. } => {
                    meta.adjusts += 1;
                    meta.max_vs = meta.max_vs.max(*vs);
                }
                Element::Stable(_) => meta.stables += 1,
            }
        }
        meta
    }

    /// Data (insert + adjust) elements in the batch.
    pub fn data(&self) -> u32 {
        self.inserts + self.adjusts
    }

    /// Whether the batch carries punctuation.
    pub fn has_stable(&self) -> bool {
        self.stables > 0
    }
}

/// Externally visible lifecycle/robustness state of one input: a stable
/// vocabulary the engine can trace without depending on operator
/// internals. Mirrors the variants of `inputs::InputState`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InputHealth {
    /// Attached and fully trusted.
    Active,
    /// Attached; data usable, punctuation gated until its join time is
    /// covered by the output stable point.
    Joining,
    /// Demoted by a robustness policy: data merges, punctuation ignored
    /// until the input catches back up.
    Quarantined,
    /// Detached — left cleanly, crashed, or demoted past recovery.
    Left,
}

/// A Logical Merge operator: `n` physically divergent, logically consistent
/// inputs in, one compatible stream out.
///
/// Implementations are synchronous state machines: [`push`](Self::push) one
/// element from one input, and any resulting output elements are appended to
/// the caller's vector. This keeps the algorithms engine-agnostic and makes
/// their behaviour exactly reproducible.
pub trait LogicalMerge<P: Payload> {
    /// Feed one element from input `input`; output elements are appended to
    /// `out`. Elements from detached inputs are ignored.
    fn push(&mut self, input: StreamId, element: &Element<P>, out: &mut Vec<Element<P>>);

    /// Feed a whole batch from input `input`. Semantically identical to
    /// pushing each element in order (the default does exactly that), but
    /// implementations override it to pay per-batch rather than per-element
    /// costs: one dynamic dispatch, hoisted input gating, and — for the
    /// indexed variants — an O(1) discard of batches from lagging inputs
    /// whose entire `Vs` range is already settled (the catching-up-replica
    /// scenario behind the paper's Figure 5).
    fn push_batch(&mut self, input: StreamId, elements: &[Element<P>], out: &mut Vec<Element<P>>) {
        for e in elements {
            self.push(input, e, out);
        }
    }

    /// Attach a new input stream that is guaranteed correct for every event
    /// with `Ve ≥ join_time` (Section V-B). Returns its id. Pass
    /// [`Time::MIN`] for a stream attached from the logical beginning.
    fn attach(&mut self, join_time: Time) -> StreamId;

    /// Detach (mark as left) an input stream. Its per-stream state is
    /// released and its future elements ignored.
    fn detach(&mut self, input: StreamId);

    /// The operator's current output stable point (`MaxStable`).
    fn max_stable(&self) -> Time;

    /// The feedback signal of Section V-D: upstream producers may skip any
    /// element whose entire relevance lies before this application time.
    /// For the ordered variants this is the high-water `Vs`; for R3/R4 it is
    /// the stable point.
    fn feedback_point(&self) -> Time {
        self.max_stable()
    }

    /// Element counters (drives the chattiness metric and Theorem 1 tests).
    fn stats(&self) -> MergeStats;

    /// Per-input delivery counters, indexed by stream id: what each replica
    /// pushed and the latest stable point it announced. Backs the per-input
    /// lag diagnostics of Section V-D. Implementations that don't track
    /// per-input detail may return an empty slice.
    fn input_counters(&self) -> &[InputCounters] {
        &[]
    }

    /// The latest stable point announced by `input` (`Time::MIN` before any
    /// announcement or for unknown ids).
    fn input_stable(&self, input: StreamId) -> Time {
        self.input_counters()
            .get(input.0 as usize)
            .map_or(Time::MIN, |c| c.last_stable)
    }

    /// Lifecycle/robustness state of `input` as seen by the operator. The
    /// default reports every id as `Active`; variants with an input
    /// registry override it so the engine can trace health transitions
    /// (quarantine, demotion, joins, crashes).
    fn input_health(&self, input: StreamId) -> InputHealth {
        let _ = input;
        InputHealth::Active
    }

    /// Lifetime health-transition counts (quarantines by a robustness
    /// policy, restores, departures) across all inputs — the core-side
    /// hook the live telemetry plane exports. The default reports zeros;
    /// variants with an input registry override it.
    fn health_transitions(&self) -> crate::inputs::HealthTransitions {
        crate::inputs::HealthTransitions::default()
    }

    /// Estimated operator memory: index structures plus retained payload
    /// bytes (the metric of the paper's Figures 2, 6, and 7).
    fn memory_bytes(&self) -> usize;

    /// Which case of the paper's restriction spectrum this operator handles.
    fn level(&self) -> RLevel;

    /// Export a canonical image of the operator's state for checkpointing.
    /// Variants that support durability override this; the default reports
    /// "not supported" so exotic operators keep working unchanged.
    fn export_state(&self) -> Option<crate::state::MergeStateImage<P>> {
        None
    }

    /// Export what changed since the previous cut (see
    /// [`MergeCut`](crate::state::MergeCut)) and start the next one. Folding
    /// every cut of an operator, in order, into an empty image yields
    /// [`export_state`](Self::export_state); so does folding its first cut
    /// after it was built or restored into any image. The default is the
    /// whole state, every tier changed.
    fn export_cut(&mut self) -> Option<crate::state::MergeCut<P>> {
        self.export_state().map(crate::state::MergeCut::from)
    }

    /// Rebuild the operator's state from an image previously produced by
    /// [`export_state`](Self::export_state) on a *freshly constructed*
    /// operator of the same variant and configuration (policies are not
    /// part of the image). Returns `false` — leaving the operator
    /// untouched — if the image's variant kind does not match or the
    /// operator does not support restore.
    fn restore_state(&mut self, image: crate::state::MergeStateImage<P>) -> bool {
        let _ = image;
        false
    }
}
