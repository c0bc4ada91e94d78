//! Algorithm R4: the fully general LMerge (paper Section IV-E).
//!
//! No restrictions at all: any element kinds in any order, and the TDB is a
//! *multiset* — many events may share `(Vs, Payload)` with different (or
//! equal) `Ve`s. State is the `in3t` index: the tier map over [`Node`]s
//! with per-stream `Ve` multisets; the reconciliation steps are
//! the paper's `AdjustOutputCount()` (equalize the number of output events
//! per key when the key first becomes half frozen) and `AdjustOutput()`
//! (make the output's fully-frozen `Ve` buckets match the progress-driving
//! input exactly before propagating a `stable`).

use crate::in3t::{Node, VeCounts};
use crate::mem::btree_bytes;
use crate::policy::RobustnessPolicy;
use crate::shell::{Ctx, IndexedMerge, NodeKind};
use crate::state::{MergeCut, MergeStateImage, StateEntry, VariantKind};
use crate::stats::MergeStats;
use crate::tier::{SweepAction, Tiers, TIER_OVERHEAD};
use lmerge_properties::RLevel;
use lmerge_temporal::{Element, Event, Payload, StreamId, Time};

/// The R4 merge over the three-tier index.
pub type LMergeR4<P> = IndexedMerge<P, R4Kind<P>>;

/// R4's index: `in3t`, with per-stream `Ve` multisets.
#[derive(Debug)]
pub struct R4Kind<P: Payload> {
    index: Tiers<P, Node>,
}

impl<P: Payload> LMergeR4<P> {
    /// An R4 merge over `n` initially attached inputs.
    pub fn new(n: usize) -> LMergeR4<P> {
        LMergeR4::with_robustness(n, RobustnessPolicy::off())
    }

    /// An R4 merge with runtime robustness guards (DESIGN.md §10).
    pub fn with_robustness(n: usize, robustness: RobustnessPolicy) -> LMergeR4<P> {
        IndexedMerge::from_kind(
            n,
            R4Kind {
                index: Tiers::new(),
            },
            robustness,
        )
    }

    /// Number of live `(Vs, Payload)` nodes.
    pub fn live_nodes(&self) -> usize {
        self.kind.index.len()
    }
}

/// `AdjustOutputCount`: when `(vs, payload)` first becomes half frozen,
/// force the *number* of output events for the key to equal the number
/// in the progress-driving input `s`. Operates on an already-borrowed
/// node so the stable sweep can call it without re-looking the key up.
#[expect(
    clippy::expect_used,
    reason = "the output and input buckets of one node are counted in step"
)]
fn adjust_output_count<P: Payload>(
    node: &mut Node,
    payload: &P,
    vs: Time,
    s: StreamId,
    stats: &mut MergeStats,
    out: &mut Vec<Element<P>>,
) {
    let target = node.count_of(s);
    // Too many output events: cancel, preferring buckets the input does
    // not support (largest Ve first — most speculative).
    while node.count_out() > target {
        let in_counts = node.per_input.get(&s.0).cloned().unwrap_or_default();
        let victim = node
            .output
            .iter()
            .rev()
            .find(|(ve, c)| **c > in_counts.get(ve).copied().unwrap_or(0))
            .or_else(|| node.output.iter().next_back())
            .map(|(ve, _)| *ve)
            .expect("count_out > 0 implies a bucket");
        node.out_decrement(victim);
        stats.adjusts_out += 1;
        out.push(Element::adjust(payload.clone(), vs, victim, vs));
    }
    // Too few: emit inserts with Ve values the input has and we lack.
    while node.count_out() < target {
        let ve = {
            let in_counts = node.per_input.get(&s.0).expect("target > 0");
            in_counts
                .iter()
                .find(|(ve, c)| **c > node.output.get(ve).copied().unwrap_or(0))
                .map(|(ve, _)| *ve)
                .expect("input total exceeds output total")
        };
        node.out_increment(ve);
        stats.inserts_out += 1;
        out.push(Element::insert(payload.clone(), vs, ve));
    }
}

/// `AdjustOutput`: before a `stable(t)` freezes them, make every output
/// `Ve` bucket with `Ve < t` hold exactly as many events as the driving
/// input's bucket, by re-aiming surplus output events at deficit buckets
/// (and parking leftovers at an unfrozen `Ve`). Node-level like
/// [`adjust_output_count`]; `old_stable` is the operator's
/// `MaxStable` before this stable began.
#[allow(clippy::too_many_arguments)]
fn adjust_output<P: Payload>(
    node: &mut Node,
    payload: &P,
    vs: Time,
    s: StreamId,
    t: Time,
    old_stable: Time,
    stats: &mut MergeStats,
    out: &mut Vec<Element<P>>,
) {
    let in_counts = node.per_input.get(&s.0).cloned().unwrap_or_default();

    // Donor pool: output events that must move (bucket over-full in the
    // about-to-freeze region), one entry per surplus event.
    let mut donors: Vec<Time> = Vec::new();
    // Deficits: (ve, how many more output events needed there).
    let mut deficits: Vec<(Time, usize)> = Vec::new();
    for (ve, in_c) in in_counts.range(..t) {
        let out_c = node.output.get(ve).copied().unwrap_or(0);
        if out_c < *in_c {
            deficits.push((*ve, in_c - out_c));
        }
    }
    for (ve, out_c) in node.output.range(..t) {
        let in_c = in_counts.get(ve).copied().unwrap_or(0);
        for _ in in_c..*out_c {
            donors.push(*ve);
        }
    }

    // Fill deficits from donors first, then from unfrozen output events.
    for (ve_d, mut need) in deficits {
        if ve_d < old_stable {
            // An already-frozen bucket can only mismatch if the inputs
            // were inconsistent; re-freezing differently would corrupt
            // the output stream, so leave it.
            continue;
        }
        while need > 0 {
            let donor = donors.pop().or_else(|| {
                // Borrow an output event parked at an unfrozen Ve.
                node.output.range(t..).next_back().map(|(ve, _)| *ve)
            });
            match donor {
                Some(ve_o) => {
                    node.out_decrement(ve_o);
                    node.out_increment(ve_d);
                    stats.adjusts_out += 1;
                    out.push(Element::adjust(payload.clone(), vs, ve_o, ve_d));
                }
                None if vs >= old_stable => {
                    // No event to repurpose: materialize one.
                    node.out_increment(ve_d);
                    stats.inserts_out += 1;
                    out.push(Element::insert(payload.clone(), vs, ve_d));
                }
                None => break,
            }
            need -= 1;
        }
    }

    // Park leftover surplus events at an unfrozen end time, preferring a
    // Ve the driving input actually holds (fewer corrections later).
    for ve_o in donors {
        let target = node
            .per_input
            .get(&s.0)
            .and_then(|m| {
                m.range(t..)
                    .find(|(ve, c)| **c > node.output.get(ve).copied().unwrap_or(0))
                    .map(|(ve, _)| *ve)
            })
            .unwrap_or(Time::INFINITY);
        node.out_decrement(ve_o);
        node.out_increment(target);
        stats.adjusts_out += 1;
        out.push(Element::adjust(payload.clone(), vs, ve_o, target));
    }
}

impl<P: Payload> NodeKind<P> for R4Kind<P> {
    const VARIANT: VariantKind = VariantKind::R4;
    const LEVEL: RLevel = RLevel::R4;

    #[inline]
    fn insert(&mut self, cx: &mut Ctx<'_, P>, e: &Event<P>) {
        // Lines 4–7: below MaxStable only an existing node may still absorb
        // the element; a missing one was frozen and dropped. One lookup
        // either way — `add_node` is only taken on the unfrozen side.
        let s = cx.input;
        let max_stable = cx.books.max_stable;
        let stats = &mut cx.books.stats;
        let node = if e.vs < max_stable {
            match self.index.get_mut(e.vs, &e.payload) {
                Some(node) => node,
                None => {
                    stats.dropped += 1;
                    return;
                }
            }
        } else {
            self.index.add_node(e.vs, e.payload.clone())
        };
        node.increment(s, e.ve);
        // Lines 9–11: output only while the key is unfrozen and this input
        // has presented more events than we have emitted.
        if e.vs >= max_stable && node.count_of(s) > node.count_out() {
            node.out_increment(e.ve);
            stats.inserts_out += 1;
            cx.out.push(Element::Insert(e.clone()));
        } else {
            stats.dropped += 1;
        }
        cx.live.note(s);
    }

    #[inline]
    fn adjust(&mut self, cx: &mut Ctx<'_, P>, payload: &P, vs: Time, vold: Time, ve: Time) {
        // Lines 13–15 (absorbed silently; output reconciled lazily).
        let Some(node) = self.index.get_mut(vs, payload) else {
            cx.books.stats.dropped += 1;
            return;
        };
        if !node.decrement(cx.input, vold) {
            cx.books.stats.dropped += 1;
        } else if ve != vs {
            node.increment(cx.input, ve);
        } else {
            cx.live.release(cx.input.0, 1);
        }
    }

    #[inline(never)]
    fn sweep(&mut self, cx: &mut Ctx<'_, P>, t: Time) {
        // One in-place sweep over the half-frozen prefix: no key clones, no
        // re-lookups, retirement during the walk, and no visit to tiers an
        // earlier sweep settled past `t`.
        let s = cx.input;
        let old_stable = cx.books.max_stable;
        let stats = &mut cx.books.stats;
        let inputs = &cx.books.inputs;
        let (live, out) = (&mut *cx.live, &mut *cx.out);
        self.index.sweep_half_frozen(t, |vs, payload, node| {
            // Lines 20–22: first half-freeze of the key → equalize counts.
            if vs >= old_stable {
                adjust_output_count(node, payload, vs, s, stats, out);
            }
            // Lines 23–26: make freezing buckets match exactly.
            adjust_output(node, payload, vs, s, t, old_stable, stats, out);
            // Lines 27–28: everything for the key fully frozen → drop it.
            if node.max_ve(s).is_none_or(|m| m < t) {
                for (id, counts) in &node.per_input {
                    live.release(*id, counts.values().sum::<usize>() as u64);
                }
                SweepAction::Retire
            } else if inputs.live_ids().all(|id| node.max_ve(id).is_some()) {
                // Counts are equalized once, at this first half-freeze
                // (`MaxStable` is about to pass `vs`); from here a stable
                // only matches the buckets it freezes, and every input
                // that can drive one holds events here. Until the smallest
                // recorded `Ve` falls below a stable (or the node is
                // touched) there is nothing to match and nothing to retire.
                SweepAction::KeepUntil(node.min_ve())
            } else {
                // An attached input holds no event at this key: its next
                // stable retires the node. Stay due.
                SweepAction::Keep
            }
        });
    }

    fn min_live_vs(&self) -> Option<Time> {
        self.index.min_vs()
    }

    fn attach(&mut self, _allocated: usize) {
        // The joiner lacks every live node: no tier is settled for it.
        self.index.mark_all_due();
    }

    fn detach(&mut self, input: StreamId) {
        for node in self.index.nodes_mut() {
            node.per_input.remove(&input.0);
        }
    }

    /// Tree structure, the per-`Vs` payload tiers and each node's
    /// per-stream tree (modelled by [`btree_bytes`] so the figure is a pure
    /// function of the contents), shared payloads, and per-stream `Ve` tree
    /// entries.
    fn memory_bytes(&self) -> usize {
        const VE_ENTRY: usize = std::mem::size_of::<(Time, usize)>() + 16;
        let mut entries = 0usize;
        let mut tables = btree_bytes(self.index.len(), std::mem::size_of::<(P, Node)>());
        for (_, _, node) in self.index.iter() {
            tables += btree_bytes(node.per_input.len(), std::mem::size_of::<(u32, VeCounts)>());
            entries += node.output.len();
            entries += node.per_input.values().map(VeCounts::len).sum::<usize>();
        }
        self.index.tier_count() * TIER_OVERHEAD
            + tables
            + self.index.payload_bytes()
            + entries * VE_ENTRY
    }

    fn export(&self, cut: &mut MergeCut<P>, changed_only: bool) {
        cut.entries = self.index.len();
        let mut keys = Vec::new();
        self.index.export(
            changed_only,
            &mut keys,
            &mut cut.image.entries,
            |vs, payload, node| StateEntry {
                vs,
                payload: payload.clone(),
                per_input: node
                    .per_input
                    .iter()
                    .map(|(&id, counts)| {
                        (id, counts.iter().map(|(&ve, &c)| (ve, c as u64)).collect())
                    })
                    .collect(),
                output: node.output.iter().map(|(&ve, &c)| (ve, c as u64)).collect(),
            },
        );
        cut.tiers.push(keys);
    }

    fn clear_changed(&mut self) {
        self.index.clear_changed();
    }

    fn restore(&mut self, img: MergeStateImage<P>) {
        self.index = Tiers::new();
        for entry in img.entries {
            let node = self.index.add_node(entry.vs, entry.payload);
            node.per_input = entry
                .per_input
                .into_iter()
                .map(|(id, counts)| {
                    (
                        id,
                        counts.into_iter().map(|(ve, c)| (ve, c as usize)).collect(),
                    )
                })
                .collect();
            node.output = entry
                .output
                .into_iter()
                .map(|(ve, c)| (ve, c as usize))
                .collect();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::LogicalMerge;
    use lmerge_temporal::reconstitute::tdb_of;
    use lmerge_temporal::Tdb;

    type E = Element<&'static str>;

    fn final_tdb(out: &[E]) -> Tdb<&'static str> {
        tdb_of(out).unwrap()
    }

    #[test]
    fn memory_walks_the_nodes_multisets() {
        let mut lm = LMergeR4::new(2);
        let mut out = Vec::new();
        lm.push(StreamId(0), &E::insert("A", 1, 5), &mut out);
        lm.push(StreamId(1), &E::insert("A", 1, 6), &mut out);
        // One tier map (1 node), one per-input map (2 streams), three Ve
        // entries (two input, one output) — pinned exactly.
        let expected = TIER_OVERHEAD
            + btree_bytes(1, std::mem::size_of::<(&str, Node)>())
            + btree_bytes(2, std::mem::size_of::<(u32, VeCounts)>())
            + 3 * (std::mem::size_of::<(Time, usize)>() + 16);
        assert_eq!(lm.kind.memory_bytes(), expected);
        lm.push(StreamId(1), &E::stable(10), &mut out);
        assert_eq!(lm.kind.memory_bytes(), 0, "retired: nothing charged");
    }

    #[test]
    fn restore_rebuilds_an_identical_index() {
        let mut lm = LMergeR4::new(2);
        let mut out = Vec::new();
        lm.push(StreamId(1), &E::insert("B", 5, 9), &mut out);
        lm.push(StreamId(0), &E::insert("A", 1, 5), &mut out);
        lm.push(StreamId(0), &E::insert("A", 1, 5), &mut out);
        let mut back: LMergeR4<&str> = LMergeR4::new(2);
        assert!(back.restore_state(lm.export_state().unwrap()));
        assert_eq!(back.kind.memory_bytes(), lm.kind.memory_bytes());
        let nodes = |m: &LMergeR4<&'static str>| -> Vec<_> {
            m.kind
                .index
                .iter()
                .map(|(vs, p, n)| (vs, *p, n.per_input.clone(), n.output.clone()))
                .collect()
        };
        assert_eq!(nodes(&back), nodes(&lm));
        let a = back.kind.index.get(Time(1), &"A").unwrap();
        assert_eq!((a.count_of(StreamId(0)), a.count_out()), (2, 2));
        assert_eq!(nodes(&lm)[1].0, Time(5), "canonical order");
    }

    #[test]
    fn detach_drops_only_that_streams_multiset() {
        let mut lm = LMergeR4::new(2);
        let mut out = Vec::new();
        lm.push(StreamId(0), &E::insert("A", 1, 5), &mut out);
        lm.push(StreamId(1), &E::insert("A", 1, 6), &mut out);
        lm.detach(StreamId(0));
        let n = lm.kind.index.get(Time(1), &"A").unwrap();
        assert_eq!((n.count_of(StreamId(0)), n.count_of(StreamId(1))), (0, 1));
        assert_eq!(n.count_out(), 1, "the output keeps what it emitted");
    }

    #[test]
    fn duplicate_events_are_preserved() {
        // Two genuine duplicates in the logical stream (R4's raison d'être).
        let mut lm = LMergeR4::new(2);
        let mut out = Vec::new();
        for s in 0..2u32 {
            lm.push(StreamId(s), &E::insert("A", 1, 5), &mut out);
            lm.push(StreamId(s), &E::insert("A", 1, 5), &mut out);
        }
        lm.push(StreamId(0), &E::stable(10), &mut out);
        let tdb = final_tdb(&out);
        assert_eq!(tdb.count(&"A", Time(1), Time(5)), 2, "both duplicates kept");
    }

    #[test]
    fn per_input_counting_avoids_double_output() {
        let mut lm = LMergeR4::new(2);
        let mut out = Vec::new();
        lm.push(StreamId(0), &E::insert("A", 1, 5), &mut out);
        lm.push(StreamId(1), &E::insert("A", 1, 5), &mut out);
        assert_eq!(out.len(), 1, "second input's copy is the same event");
        lm.push(StreamId(1), &E::insert("A", 1, 5), &mut out);
        assert_eq!(out.len(), 2, "but a second occurrence is new");
    }

    #[test]
    fn divergent_ends_reconciled_on_stable() {
        let mut lm = LMergeR4::new(2);
        let mut out = Vec::new();
        lm.push(StreamId(0), &E::insert("A", 6, 7), &mut out);
        lm.push(StreamId(1), &E::insert("A", 6, 12), &mut out);
        lm.push(StreamId(1), &E::stable(20), &mut out);
        let tdb = final_tdb(&out);
        assert_eq!(tdb.count(&"A", Time(6), Time(12)), 1);
        assert_eq!(tdb.len(), 1);
    }

    #[test]
    fn spurious_event_cancelled() {
        let mut lm = LMergeR4::new(2);
        let mut out = Vec::new();
        lm.push(StreamId(0), &E::insert("X", 5, 9), &mut out);
        lm.push(StreamId(1), &E::stable(10), &mut out);
        assert!(final_tdb(&out).is_empty());
    }

    #[test]
    fn missing_output_event_materialized() {
        // Input 1 has two events for the key; only one was output (input 0
        // contributed the other logical copy later). On input 1's stable,
        // output must carry both.
        let mut lm = LMergeR4::new(2);
        let mut out = Vec::new();
        lm.push(StreamId(0), &E::insert("A", 1, 5), &mut out);
        lm.push(StreamId(1), &E::insert("A", 1, 5), &mut out); // dup, absorbed
        lm.push(StreamId(1), &E::insert("A", 1, 8), &mut out); // new copy: output
        lm.push(StreamId(1), &E::stable(10), &mut out);
        let tdb = final_tdb(&out);
        assert_eq!(tdb.count(&"A", Time(1), Time(5)), 1);
        assert_eq!(tdb.count(&"A", Time(1), Time(8)), 1);
    }

    #[test]
    fn adjust_chains_resolve_to_final_value() {
        let mut lm = LMergeR4::new(1);
        let mut out = Vec::new();
        lm.push(StreamId(0), &E::insert("A", 6, 20), &mut out);
        lm.push(StreamId(0), &E::adjust("A", 6, 20, 30), &mut out);
        lm.push(StreamId(0), &E::adjust("A", 6, 30, 25), &mut out);
        lm.push(StreamId(0), &E::stable(40), &mut out);
        let tdb = final_tdb(&out);
        assert_eq!(tdb.count(&"A", Time(6), Time(25)), 1);
        assert_eq!(tdb.len(), 1);
    }

    #[test]
    fn cancellation_via_adjust_to_vs() {
        let mut lm = LMergeR4::new(1);
        let mut out = Vec::new();
        lm.push(StreamId(0), &E::insert("A", 6, 20), &mut out);
        lm.push(StreamId(0), &E::adjust("A", 6, 20, 6), &mut out);
        lm.push(StreamId(0), &E::stable(40), &mut out);
        assert!(final_tdb(&out).is_empty());
    }

    #[test]
    fn same_key_different_ves_multiset() {
        // One logical stream holds ⟨A,1,5⟩ and ⟨A,1,9⟩ simultaneously.
        let mut lm = LMergeR4::new(2);
        let mut out = Vec::new();
        for s in 0..2u32 {
            lm.push(StreamId(s), &E::insert("A", 1, 5), &mut out);
            lm.push(StreamId(s), &E::insert("A", 1, 9), &mut out);
        }
        lm.push(StreamId(0), &E::stable(20), &mut out);
        let tdb = final_tdb(&out);
        assert_eq!(tdb.count(&"A", Time(1), Time(5)), 1);
        assert_eq!(tdb.count(&"A", Time(1), Time(9)), 1);
    }

    #[test]
    fn divergent_bucket_assignment_reconciled() {
        // Input 0 presents ends {7, 12}; input 1 presents {12, 7} but the
        // output followed input 0's provisional values {9, 12}. The driving
        // stable must leave the output with exactly {7, 12}.
        let mut lm = LMergeR4::new(2);
        let mut out = Vec::new();
        lm.push(StreamId(0), &E::insert("A", 1, 9), &mut out);
        lm.push(StreamId(0), &E::insert("A", 1, 12), &mut out);
        lm.push(StreamId(1), &E::insert("A", 1, 12), &mut out);
        lm.push(StreamId(1), &E::insert("A", 1, 7), &mut out);
        lm.push(StreamId(1), &E::stable(30), &mut out);
        let tdb = final_tdb(&out);
        assert_eq!(tdb.count(&"A", Time(1), Time(7)), 1);
        assert_eq!(tdb.count(&"A", Time(1), Time(12)), 1);
        assert_eq!(tdb.len(), 2);
    }

    #[test]
    fn stale_adjust_is_dropped_not_corrupting() {
        let mut lm = LMergeR4::new(1);
        let mut out = Vec::new();
        lm.push(StreamId(0), &E::insert("A", 1, 5), &mut out);
        // Adjust names a Vold that was never recorded.
        lm.push(StreamId(0), &E::adjust("A", 1, 99, 7), &mut out);
        lm.push(StreamId(0), &E::stable(10), &mut out);
        let tdb = final_tdb(&out);
        assert_eq!(tdb.count(&"A", Time(1), Time(5)), 1);
    }

    #[test]
    fn nodes_freed_after_full_freeze() {
        let mut lm = LMergeR4::new(1);
        let mut out = Vec::new();
        for i in 0..30i64 {
            lm.push(StreamId(0), &E::insert("k", i, i + 1), &mut out);
        }
        assert_eq!(lm.live_nodes(), 30);
        lm.push(StreamId(0), &E::stable(100), &mut out);
        assert_eq!(lm.live_nodes(), 0);
    }

    #[test]
    fn output_valid_streaminsight_stream() {
        // Whatever R4 emits must itself reconstitute without violations.
        let mut lm = LMergeR4::new(3);
        let mut out = Vec::new();
        for s in 0..3u32 {
            for i in 0..20i64 {
                lm.push(StreamId(s), &E::insert("k", i, i + 15), &mut out);
                if i % 3 == 0 {
                    lm.push(StreamId(s), &E::adjust("k", i, i + 15, i + 6), &mut out);
                }
            }
            lm.push(StreamId(s), &E::stable(10 + s as i64), &mut out);
        }
        lm.push(StreamId(0), &E::stable(100), &mut out);
        assert!(tdb_of(&out).is_ok(), "output stream must be well formed");
    }
}
