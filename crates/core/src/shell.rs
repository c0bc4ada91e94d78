//! The one indexed-merge shell: what R3+, R3− and R4 share.
//!
//! The paper presents R4 as R3 with a third tier (Sections IV-D/E,
//! Figure 1: in2t → in3t) and LMR3− as R3 with per-input indexes
//! (Section VI-A). All three run the same algorithm around their index:
//! count and gate each element, record data elements in the index, and
//! when a `stable(t)` advances the output, reconcile the half-frozen prefix
//! with the driving input before propagating `t`. [`IndexedMerge`] owns
//! that algorithm and everything around it: the input registry, per-input
//! tallies, element stats and the output stable point ([`Books`]), the
//! robustness guards (live-entry bound, laggard quarantine), the one batch
//! path, attach/detach, health, memory and the common half of the state
//! image. A [`NodeKind`] supplies the index and only the decisions that
//! differ: insert, adjust, the half-freeze sweep, how an input's stable
//! maps to the output's, and the entry image.
//!
//! [`Books`] is the part every variant keeps, R0–R2 included.

use crate::api::{BatchMeta, LogicalMerge};
use crate::inputs::{InputState, Inputs};
use crate::policy::RobustnessPolicy;
use crate::state::{MergeCut, MergeStateImage, VariantKind};
use crate::stats::{MergeStats, PerInput};
use lmerge_properties::RLevel;
use lmerge_temporal::{Element, Event, Payload, StreamId, Time};
use std::marker::PhantomData;

/// The bookkeeping every variant of the spectrum keeps: the output stable
/// point, the input registry, element stats and per-input tallies.
#[derive(Debug)]
pub(crate) struct Books {
    pub(crate) max_stable: Time,
    pub(crate) inputs: Inputs,
    pub(crate) stats: MergeStats,
    pub(crate) tallies: PerInput,
}

impl Books {
    pub(crate) fn new(n: usize) -> Books {
        Books {
            max_stable: Time::MIN,
            inputs: Inputs::new(n),
            stats: MergeStats::default(),
            tallies: PerInput::new(n),
        }
    }

    /// Count one pushed element and say whether it passes its input's gate:
    /// data from attached inputs, punctuation from active ones. A
    /// quarantined input announcing a stable at or past the output's has
    /// caught back up and is restored before the gate.
    pub(crate) fn admit<P: Payload>(&mut self, input: StreamId, element: &Element<P>) -> bool {
        self.tallies.on_element(input, element);
        match element {
            Element::Insert(_) => self.stats.inserts_in += 1,
            Element::Adjust { .. } => self.stats.adjusts_in += 1,
            Element::Stable(t) => {
                self.stats.stables_in += 1;
                if *t >= self.max_stable && self.inputs.state(input) == InputState::Quarantined {
                    self.inputs.restore(input);
                }
                return self.inputs.accepts_stable(input);
            }
        }
        self.inputs.accepts_data(input)
    }

    /// Move the output stable point to `t`: promote covered joiners, then
    /// count and emit the stable.
    pub(crate) fn advance<P: Payload>(&mut self, t: Time, out: &mut Vec<Element<P>>) {
        self.max_stable = t;
        self.inputs.on_stable_advance(t);
        self.stats.stables_out += 1;
        out.push(Element::Stable(t));
    }

    /// An admitted `stable(t)` of a variant with nothing to reconcile
    /// (R0–R2): the output follows it if it advances.
    pub(crate) fn propagate<P: Payload>(&mut self, t: Time, out: &mut Vec<Element<P>>) {
        if t > self.max_stable {
            self.advance(t, out);
        }
    }

    /// Quarantine every active input whose announced stable point trails
    /// the freshly advanced output stable `t` by more than `lag`. The
    /// driving stream `s` is exempt (it just proved it is current).
    fn quarantine_laggards(&mut self, lag: i64, s: StreamId, t: Time) {
        if t == Time::INFINITY {
            return;
        }
        let threshold = t.saturating_sub(lag);
        for (i, c) in self.tallies.counters().iter().enumerate() {
            let id = StreamId(i as u32);
            if id != s && c.last_stable != Time::MIN && c.last_stable < threshold {
                self.inputs.quarantine(id);
            }
        }
    }

    pub(crate) fn attach(&mut self, join_time: Time) -> StreamId {
        self.tallies.on_attach();
        self.inputs.attach(join_time)
    }

    pub(crate) fn memory_bytes(&self) -> usize {
        self.inputs.memory_bytes() + self.tallies.memory_bytes()
    }

    /// An image of `kind` carrying these books.
    pub(crate) fn image<P: Payload>(&self, kind: VariantKind) -> MergeStateImage<P> {
        let mut img = MergeStateImage::with_common(kind, &self.inputs, &self.tallies, self.stats);
        img.max_stable = self.max_stable;
        img
    }

    /// Take back the books an [`image`](Books::image) carried.
    pub(crate) fn restore<P: Payload>(&mut self, img: &MergeStateImage<P>) {
        self.stats = img.apply_common(&mut self.inputs, &mut self.tallies);
        self.max_stable = img.max_stable;
    }
}

/// The `LogicalMerge` accessors a variant answers from its `books`.
macro_rules! books_accessors {
    () => {
        fn max_stable(&self) -> lmerge_temporal::Time {
            self.books.max_stable
        }

        fn stats(&self) -> $crate::stats::MergeStats {
            self.books.stats
        }

        fn input_counters(&self) -> &[$crate::stats::InputCounters] {
            self.books.tallies.counters()
        }

        fn input_health(&self, input: lmerge_temporal::StreamId) -> $crate::api::InputHealth {
            self.books.inputs.state(input).into()
        }

        fn health_transitions(&self) -> $crate::inputs::HealthTransitions {
            self.books.inputs.transitions()
        }
    };
}
pub(crate) use books_accessors;

/// Live index entries attributed to each input: what the
/// `max_live_entries` guard bounds.
#[derive(Debug)]
pub(crate) struct LiveEntries(Vec<u64>);

impl LiveEntries {
    pub(crate) fn get(&self, input: StreamId) -> u64 {
        self.0.get(input.0 as usize).copied().unwrap_or(0)
    }

    /// One more entry for `input` (late-attached ids grow the table).
    pub(crate) fn note(&mut self, input: StreamId) {
        let i = input.0 as usize;
        if i >= self.0.len() {
            self.0.resize(i + 1, 0);
        }
        self.0[i] += 1;
    }

    /// `n` of `input`'s entries left the index.
    pub(crate) fn release(&mut self, input: u32, n: u64) {
        if let Some(c) = self.0.get_mut(input as usize) {
            *c = c.saturating_sub(n);
        }
    }
}

/// What a kind's decisions may read and write of the shell: the input the
/// element came from (for a sweep, the input driving the stable), the
/// books, the live-entry table, and the output.
pub struct Ctx<'a, P> {
    pub(crate) input: StreamId,
    pub(crate) books: &'a mut Books,
    pub(crate) live: &'a mut LiveEntries,
    pub(crate) out: &'a mut Vec<Element<P>>,
}

/// The index of one indexed variant and the decisions the shell leaves to
/// it. Each decision runs after the shell has counted and gated the
/// element.
/// Kinds mark `insert`/`adjust` `#[inline]` and `sweep` `#[inline(never)]`
/// (the per-element decisions belong in `push`; DESIGN.md §8).
pub trait NodeKind<P: Payload> {
    /// The image tag of the variant.
    const VARIANT: VariantKind;
    /// The restriction level the variant handles.
    const LEVEL: RLevel;
    /// Whether the kind attributes index entries to inputs. LMR3− runs
    /// without robustness guards, and its image carries no counters.
    const COUNTS_ENTRIES: bool = true;

    /// Record an insert from `cx.input`, emitting whatever the variant's
    /// policy emits for it.
    fn insert(&mut self, cx: &mut Ctx<'_, P>, e: &Event<P>);

    /// Record an adjust from `cx.input`.
    fn adjust(&mut self, cx: &mut Ctx<'_, P>, payload: &P, vs: Time, vold: Time, ve: Time);

    /// The output stable point an input's `stable(t)` asks for.
    fn effective_stable(&self, t: Time) -> Time {
        t
    }

    /// Reconcile the half-frozen prefix with the driving input `cx.input`
    /// before the output stable point moves from `cx.books.max_stable` to
    /// `t`, retiring what `t` settles.
    fn sweep(&mut self, cx: &mut Ctx<'_, P>, t: Time);

    /// The smallest `Vs` the index holds, if any: below it (and below the
    /// output stable point) every data element is stale.
    fn min_live_vs(&self) -> Option<Time>;

    /// An input was attached; `allocated` ids now exist.
    fn attach(&mut self, allocated: usize);

    /// Drop everything the index holds for `input`.
    fn detach(&mut self, input: StreamId);

    /// Estimated bytes of the index.
    fn memory_bytes(&self) -> usize;

    /// Write the index into `cut`: the variant's scalars, each entry
    /// index's live tier keys, the entries of its changed tiers (of every
    /// tier unless `changed_only`) in canonical order, and the entry count.
    fn export(&self, cut: &mut MergeCut<P>, changed_only: bool);

    /// Start the next cut: no tier has changed since this one.
    fn clear_changed(&mut self);

    /// Rebuild the index from an image [`export`](NodeKind::export) wrote.
    fn restore(&mut self, img: MergeStateImage<P>);
}

/// An indexed LMerge: the shell around one [`NodeKind`].
#[derive(Debug)]
pub struct IndexedMerge<P: Payload, K> {
    pub(crate) kind: K,
    books: Books,
    live: LiveEntries,
    robustness: RobustnessPolicy,
    _payload: PhantomData<fn() -> P>,
}

impl<P: Payload, K> IndexedMerge<P, K> {
    /// Live index entries currently attributed to `input` (feeds the
    /// robustness memory guard; exposed for tests and diagnostics).
    pub fn live_entries(&self, input: StreamId) -> u64 {
        self.live.get(input)
    }
}

impl<P: Payload, K: NodeKind<P>> IndexedMerge<P, K> {
    pub(crate) fn from_kind(n: usize, kind: K, robustness: RobustnessPolicy) -> Self {
        IndexedMerge {
            kind,
            books: Books::new(n),
            live: LiveEntries(vec![0; if K::COUNTS_ENTRIES { n } else { 0 }]),
            robustness,
            _payload: PhantomData,
        }
    }

    /// The one export: the books and the kind's index, of the changed
    /// tiers or of all of them.
    fn cut(&self, changed_only: bool) -> MergeCut<P> {
        let mut image = self.books.image(K::VARIANT);
        image.live_entries = self.live.0.clone();
        let mut cut = MergeCut {
            image,
            tiers: Vec::new(),
            entries: 0,
        };
        self.kind.export(&mut cut, changed_only);
        cut
    }

    /// Hand one gated data element to the kind.
    fn data(&mut self, input: StreamId, element: &Element<P>, out: &mut Vec<Element<P>>) {
        let cx = &mut Ctx {
            input,
            books: &mut self.books,
            live: &mut self.live,
            out,
        };
        match element {
            Element::Insert(e) => self.kind.insert(cx, e),
            Element::Adjust {
                payload,
                vs,
                vold,
                ve,
            } => self.kind.adjust(cx, payload, *vs, *vold, *ve),
            Element::Stable(_) => unreachable!("punctuation is not data"),
        }
    }

    /// Bounded-memory guard, checked after every data element: an input
    /// holding more than `bound` live entries is demoted — detached, its
    /// entries dropped. Returns whether it was.
    fn demote_over(&mut self, input: StreamId, bound: u64) -> bool {
        let over = self.live.get(input) > bound;
        if over {
            self.detach(input);
        }
        over
    }

    fn stable(&mut self, input: StreamId, t: Time, out: &mut Vec<Element<P>>) {
        let t = self.kind.effective_stable(t);
        // Only stables that advance the output do work.
        if t <= self.books.max_stable {
            return;
        }
        self.kind.sweep(
            &mut Ctx {
                input,
                books: &mut self.books,
                live: &mut self.live,
                out,
            },
            t,
        );
        self.books.advance(t, out);
        if let Some(lag) = self.robustness.quarantine_lag {
            self.books.quarantine_laggards(lag, input, t);
        }
    }
}

impl<P: Payload, K: NodeKind<P>> LogicalMerge<P> for IndexedMerge<P, K> {
    fn push(&mut self, input: StreamId, element: &Element<P>, out: &mut Vec<Element<P>>) {
        if !self.books.admit(input, element) {
            return;
        }
        match element {
            Element::Stable(t) => self.stable(input, *t, out),
            data => {
                self.data(input, data, out);
                if let Some(bound) = self.robustness.max_live_entries {
                    self.demote_over(input, bound);
                }
            }
        }
    }

    fn push_batch(&mut self, input: StreamId, elements: &[Element<P>], out: &mut Vec<Element<P>>) {
        if elements.is_empty() {
            return;
        }
        let meta = BatchMeta::of(elements);
        // Punctuation-bearing batches go element-by-element: stables
        // interleave with data and per-input `last_stable` must see each one.
        if meta.has_stable() {
            for e in elements {
                self.push(input, e, out);
            }
            return;
        }
        // Data-only batch: count and gate once for the whole batch.
        let books = &mut self.books;
        books
            .tallies
            .on_data_batch(input, meta.inserts as u64, meta.adjusts as u64);
        books.stats.inserts_in += meta.inserts as u64;
        books.stats.adjusts_in += meta.adjusts as u64;
        if !books.inputs.accepts_data(input) {
            return;
        }
        // O(1) frozen-prefix discard (the catching-up replica of Figure 5):
        // with the whole `Vs` range below both `MaxStable` and the smallest
        // live `Vs`, every element would individually resolve to "stale, no
        // node" and be dropped — so drop the batch in one step. The bound is
        // recomputed on every call, and a detach only strips per-input
        // entries (reconciled nodes keep their output and stay put), so a
        // detach between batches can only shrink what is discarded.
        if meta.max_vs < books.max_stable && self.kind.min_live_vs().is_none_or(|m| meta.max_vs < m)
        {
            books.stats.dropped += meta.data() as u64;
            return;
        }
        // The entry bound is checked after each element, as `push` does: a
        // demotion gates the rest of the batch, which is already counted.
        match self.robustness.max_live_entries {
            None => {
                for e in elements {
                    self.data(input, e, out);
                }
            }
            Some(bound) => {
                for e in elements {
                    self.data(input, e, out);
                    if self.demote_over(input, bound) {
                        return;
                    }
                }
            }
        }
    }

    fn attach(&mut self, join_time: Time) -> StreamId {
        let id = self.books.attach(join_time);
        self.kind.attach(self.books.inputs.allocated());
        id
    }

    fn detach(&mut self, input: StreamId) {
        self.books.inputs.detach(input);
        self.kind.detach(input);
        self.live.release(input.0, self.live.get(input));
    }

    books_accessors!();

    /// What the kind and the books allocate for their contents. The
    /// shell's own struct is not state: it is the same for every content.
    fn memory_bytes(&self) -> usize {
        self.kind.memory_bytes() + self.books.memory_bytes()
    }

    fn level(&self) -> RLevel {
        K::LEVEL
    }

    fn export_state(&self) -> Option<MergeStateImage<P>> {
        Some(self.cut(false).image)
    }

    fn export_cut(&mut self) -> Option<MergeCut<P>> {
        let cut = self.cut(true);
        self.kind.clear_changed();
        Some(cut)
    }

    fn restore_state(&mut self, mut image: MergeStateImage<P>) -> bool {
        if image.kind != K::VARIANT {
            return false;
        }
        self.books.restore(&image);
        self.live.0 = std::mem::take(&mut image.live_entries);
        self.kind.restore(image);
        true
    }
}

#[cfg(test)]
mod tests {
    use crate::api::{InputHealth, LogicalMerge};
    use crate::policy::{MergePolicy, RobustnessPolicy};
    use crate::{LMergeR3, LMergeR4};
    use lmerge_temporal::{Element, StreamId};

    const BOUND_2: RobustnessPolicy = RobustnessPolicy {
        quarantine_lag: None,
        max_live_entries: Some(2),
    };

    /// Bound 2 and six fresh inserts from input 0 in one batch: the batch
    /// emits what six pushes emit — three inserts, after which the
    /// demotion gates the rest.
    #[test]
    fn a_batch_stops_at_the_entry_bound_like_single_pushes() {
        type Mk = fn() -> Box<dyn LogicalMerge<&'static str>>;
        let mks: [Mk; 2] = [
            || {
                Box::new(LMergeR3::with_policy(
                    2,
                    MergePolicy {
                        robustness: BOUND_2,
                        ..MergePolicy::default()
                    },
                ))
            },
            || Box::new(LMergeR4::with_robustness(2, BOUND_2)),
        ];
        let batch: Vec<Element<&str>> = (0..6).map(|i| Element::insert("k", i, i + 100)).collect();
        for mk in mks {
            let (mut by_push, mut by_batch) = (mk(), mk());
            let (mut out_p, mut out_b) = (Vec::new(), Vec::new());
            for e in &batch {
                by_push.push(StreamId(0), e, &mut out_p);
            }
            by_batch.push_batch(StreamId(0), &batch, &mut out_b);
            assert_eq!(out_p, batch[..3], "{:?}", by_push.level());
            assert_eq!(out_b, out_p, "{:?}", by_push.level());
            assert_eq!(by_batch.stats(), by_push.stats());
            assert_eq!(by_batch.input_counters(), by_push.input_counters());
            assert_eq!(by_batch.input_health(StreamId(0)), InputHealth::Left);
        }
    }
}
