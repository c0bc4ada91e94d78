//! `LMR3−`: the naive R3 baseline of the paper's evaluation (Section VI-A).
//!
//! "Events from each input stream are maintained in a separate index, with
//! another index used to hold output events. … While this algorithm is
//! simpler to implement, it duplicates event information across input
//! streams and requires multiple tree lookups at runtime."
//!
//! It produces the same output as [`crate::LMergeR3`] under the default
//! policy, but its memory grows linearly with the number of inputs (each
//! input's index stores its own copy of every live payload) — the contrast
//! Figures 2 and 7 measure.

use crate::policy::RobustnessPolicy;
use crate::shell::{Ctx, IndexedMerge, NodeKind};
use crate::state::{MergeCut, MergeStateImage, StateEntry, VariantKind};
use crate::tier::{SweepAction, Tiers};
use lmerge_properties::RLevel;
use lmerge_temporal::{Element, Event, Payload, StreamId, Time};

// Each index is the tier map R3+ and R4 use, `Vs → (Payload → Ve)`, with
// its own payload copies — the duplication that makes LMR3− degrade
// linearly with the number of inputs.

/// Record `ve` for `(vs, p)` in `ix`.
fn set<P: Payload>(ix: &mut Tiers<P, Time>, vs: Time, p: &P, ve: Time) {
    if let Some((node, _)) = ix.get_or_link(vs, p, true) {
        *node = ve;
    }
}

/// An index's share of a cut: its live tier keys onto `tiers`, and the
/// `(Vs, payload, Ve)` entries of its changed tiers (of all unless
/// `changed_only`) in canonical order. The `Ve` travels in the image
/// entry's `output` field as a `(ve, 1)` bucket.
fn export_index<P: Payload>(
    ix: &Tiers<P, Time>,
    changed_only: bool,
    tiers: &mut Vec<Vec<Time>>,
) -> Vec<StateEntry<P>> {
    let (mut keys, mut entries) = (Vec::new(), Vec::new());
    ix.export(changed_only, &mut keys, &mut entries, |vs, p, ve| {
        StateEntry {
            vs,
            payload: p.clone(),
            per_input: Vec::new(),
            output: vec![(*ve, 1)],
        }
    });
    tiers.push(keys);
    entries
}

/// Rebuild an index from exported entries.
fn restore_index<P: Payload>(entries: &[StateEntry<P>]) -> Tiers<P, Time> {
    let mut ix = Tiers::new();
    for e in entries {
        if let Some(&(ve, _)) = e.output.first() {
            set(&mut ix, e.vs, &e.payload, ve);
        }
    }
    ix
}

/// The naive R3 merge with per-input event indexes (`LMR3−`).
pub type LMergeR3Naive<P> = IndexedMerge<P, NaiveKind<P>>;

/// LMR3−'s indexes: one per input, plus the output's.
#[derive(Debug)]
pub struct NaiveKind<P: Payload> {
    per_input: Vec<Tiers<P, Time>>,
    output: Tiers<P, Time>,
}

impl<P: Payload> LMergeR3Naive<P> {
    /// A naive R3 merge over `n` initially attached inputs.
    pub fn new(n: usize) -> LMergeR3Naive<P> {
        let kind = NaiveKind {
            per_input: (0..n).map(|_| Tiers::new()).collect(),
            output: Tiers::new(),
        };
        IndexedMerge::from_kind(n, kind, RobustnessPolicy::off())
    }
}

impl<P: Payload> NaiveKind<P> {
    fn index_for(&mut self, s: StreamId) -> &mut Tiers<P, Time> {
        let i = s.0 as usize;
        if i >= self.per_input.len() {
            self.per_input.resize_with(i + 1, Tiers::new);
        }
        &mut self.per_input[i]
    }
}

impl<P: Payload> NodeKind<P> for NaiveKind<P> {
    const VARIANT: VariantKind = VariantKind::R3Naive;
    const LEVEL: RLevel = RLevel::R3;
    const COUNTS_ENTRIES: bool = false;

    #[inline]
    fn insert(&mut self, cx: &mut Ctx<'_, P>, e: &Event<P>) {
        // Tree lookup #1: is the event already settled (fully frozen and
        // purged)? Half-frozen events must still be recorded — the input's
        // view of their end time matters.
        let known = self.output.get(e.vs, &e.payload).is_some();
        if e.vs < cx.books.max_stable && !known {
            cx.books.stats.dropped += 1;
            return;
        }
        // Tree lookup #2: record in the input's own index (a full payload
        // copy — LMR3−'s defining memory cost).
        set(self.index_for(cx.input), e.vs, &e.payload, e.ve);
        if !known {
            set(&mut self.output, e.vs, &e.payload, e.ve);
            cx.books.stats.inserts_out += 1;
            cx.out.push(Element::Insert(e.clone()));
        } else {
            cx.books.stats.dropped += 1;
        }
    }

    #[inline]
    fn adjust(&mut self, cx: &mut Ctx<'_, P>, payload: &P, vs: Time, _vold: Time, ve: Time) {
        if vs < cx.books.max_stable && self.output.get(vs, payload).is_none() {
            cx.books.stats.dropped += 1;
            return;
        }
        set(self.index_for(cx.input), vs, payload, ve);
    }

    #[inline(never)]
    fn sweep(&mut self, cx: &mut Ctx<'_, P>, t: Time) {
        // Reconcile the output with the progress-driving input. The input's
        // index is read in place while the output index is mutated — split
        // field borrows, no cloned snapshot.
        self.index_for(cx.input); // ensure the slot exists
        let max_stable = cx.books.max_stable;
        let stats = &mut cx.books.stats;
        let out = &mut *cx.out;
        let driving = &self.per_input[cx.input.0 as usize];
        for (vs, p, &in_ve) in driving.iter_below(t) {
            match self.output.get(vs, p).copied() {
                Some(o) if o != in_ve && (in_ve < t || o < t) && in_ve >= max_stable => {
                    set(&mut self.output, vs, p, in_ve);
                    stats.adjusts_out += 1;
                    out.push(Element::adjust(p.clone(), vs, o, in_ve));
                }
                // `in_ve == vs` is a deleted event: nothing to insert
                // (mirrors the R3 legality guard).
                None if in_ve != vs && vs >= max_stable => {
                    // The driving input has an event the output never
                    // carried (attach/detach churn).
                    set(&mut self.output, vs, p, in_ve);
                    stats.inserts_out += 1;
                    out.push(Element::insert(p.clone(), vs, in_ve));
                }
                _ => {}
            }
        }
        // One output sweep deletes spurious events (the driving input lacks
        // them) and purges fully frozen ones.
        // The visitors answer `Keep` or `Retire`, so no tier is ever skipped.
        self.output.sweep_half_frozen(t, |vs, p, &mut o| {
            if driving.get(vs, p).is_none() && vs >= max_stable {
                stats.adjusts_out += 1;
                out.push(Element::adjust(p.clone(), vs, o, vs));
                SweepAction::Retire
            } else if o < t {
                SweepAction::Retire
            } else {
                SweepAction::Keep
            }
        });
        // Purge fully frozen entries (both `vs` and `ve` < `t`) from every
        // input index.
        for ix in &mut self.per_input {
            ix.sweep_half_frozen(t, |_, _, &mut ve| {
                if ve < t {
                    SweepAction::Retire
                } else {
                    SweepAction::Keep
                }
            });
        }
    }

    fn min_live_vs(&self) -> Option<Time> {
        self.output.min_vs()
    }

    fn attach(&mut self, allocated: usize) {
        self.per_input.resize_with(allocated, Tiers::new);
    }

    fn detach(&mut self, input: StreamId) {
        if let Some(ix) = self.per_input.get_mut(input.0 as usize) {
            *ix = Tiers::new();
        }
    }

    fn memory_bytes(&self) -> usize {
        // A bare `Ve` allocates nothing: the indexes are all there is.
        self.per_input
            .iter()
            .map(Tiers::memory_bytes)
            .sum::<usize>()
            + self.output.memory_bytes()
    }

    fn export(&self, cut: &mut MergeCut<P>, changed_only: bool) {
        cut.entries = self.output.len() + self.per_input.iter().map(Tiers::len).sum::<usize>();
        cut.image.entries = export_index(&self.output, changed_only, &mut cut.tiers);
        let indexes = self
            .per_input
            .iter()
            .map(|ix| export_index(ix, changed_only, &mut cut.tiers))
            .collect();
        cut.image.input_indexes = indexes;
    }

    fn clear_changed(&mut self) {
        self.output.clear_changed();
        for ix in &mut self.per_input {
            ix.clear_changed();
        }
    }

    fn restore(&mut self, img: MergeStateImage<P>) {
        self.output = restore_index(&img.entries);
        self.per_input = img
            .input_indexes
            .iter()
            .map(|ix| restore_index(ix))
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::LogicalMerge;
    use lmerge_temporal::reconstitute::tdb_of;

    type E = Element<&'static str>;

    #[test]
    fn matches_lmr3_on_divergent_ends() {
        let mut lm = LMergeR3Naive::new(2);
        let mut out = Vec::new();
        lm.push(StreamId(0), &E::insert("A", 6, 7), &mut out);
        lm.push(StreamId(1), &E::insert("A", 6, 12), &mut out);
        lm.push(StreamId(1), &E::stable(20), &mut out);
        let tdb = tdb_of(&out).unwrap();
        assert_eq!(tdb.count(&"A", Time(6), Time(12)), 1);
    }

    #[test]
    fn spurious_event_deleted_on_stable() {
        let mut lm = LMergeR3Naive::new(2);
        let mut out = Vec::new();
        lm.push(StreamId(0), &E::insert("X", 5, 9), &mut out);
        lm.push(StreamId(1), &E::stable(10), &mut out);
        assert!(tdb_of(&out).unwrap().is_empty());
    }

    #[test]
    fn memory_grows_with_inputs() {
        use lmerge_temporal::Value;
        // Same workload into 2 vs 8 inputs: LMR3− duplicates payloads.
        let mem_for = |n: usize| {
            let mut lm = LMergeR3Naive::new(n);
            let mut out = Vec::new();
            for s in 0..n as u32 {
                for i in 0..100 {
                    lm.push(
                        StreamId(s),
                        &Element::insert(Value::synthetic(i, 1000), i as i64, 1_000_000),
                        &mut out,
                    );
                }
            }
            lm.memory_bytes()
        };
        let m2 = mem_for(2);
        let m8 = mem_for(8);
        // 2 inputs + output index = 3 payload-holding indexes; 8 inputs + 1
        // = 9: the expected ratio is ~3×.
        assert!(
            m8 as f64 > 2.5 * m2 as f64,
            "expected near-linear growth: {m2} → {m8}"
        );
    }

    #[test]
    fn purges_frozen_state() {
        let mut lm = LMergeR3Naive::new(1);
        let mut out = Vec::new();
        for i in 0..50i64 {
            lm.push(StreamId(0), &E::insert("k", i, i + 1), &mut out);
        }
        let before = lm.memory_bytes();
        lm.push(StreamId(0), &E::stable(100), &mut out);
        assert!(lm.memory_bytes() < before);
    }

    #[test]
    fn lazy_adjust_semantics_match_paper() {
        let mut lm = LMergeR3Naive::new(1);
        let mut out = Vec::new();
        lm.push(StreamId(0), &E::insert("A", 6, 20), &mut out);
        lm.push(StreamId(0), &E::adjust("A", 6, 20, 25), &mut out);
        assert_eq!(out.len(), 1, "adjust absorbed");
        lm.push(StreamId(0), &E::stable(40), &mut out);
        assert_eq!(out[1..], [E::adjust("A", 6, 20, 25), E::stable(40)]);
    }
}
