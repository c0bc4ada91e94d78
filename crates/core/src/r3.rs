//! Algorithm R3 (the paper's preferred `LMR3+`): LMerge over streams with
//! arbitrary element kinds and order, where `(Vs, Payload)` is a key
//! (paper Section IV-D, Algorithm R3).
//!
//! State is the `in2t` index: the tier map over [`crate::in2t::Node`]s. Inserts are
//! reflected eagerly (under the default policy); adjusts are absorbed
//! silently; divergence between the output and the inputs is corrected
//! *only* when a `stable` element would otherwise freeze it — which is what
//! yields the paper's Theorem 1 non-chattiness bound.

use crate::in2t::{In2t, INLINE_INPUTS};
use crate::policy::{AdjustPolicy, InsertPolicy, MergePolicy, StablePolicy};
use crate::shell::{Ctx, IndexedMerge, NodeKind};
use crate::state::{MergeCut, MergeStateImage, StateEntry, VariantKind};
use crate::tier::SweepAction;
use lmerge_properties::RLevel;
use lmerge_temporal::{Element, Event, Payload, StreamId, Time};

/// Modelled bytes of one end time a node holds outside itself.
const SPILLED_ENTRY: usize = std::mem::size_of::<(u32, Time)>();

/// The R3 merge over the shared two-tier index (`LMR3+`).
///
/// ```
/// use lmerge_core::{LMergeR3, LogicalMerge};
/// use lmerge_temporal::{Element, StreamId, Time};
///
/// let mut lm: LMergeR3<&str> = LMergeR3::new(2);
/// let mut out = Vec::new();
/// // Two inputs disagree on A's end time; the first presentation flows.
/// lm.push(StreamId(0), &Element::insert("A", 6, 7), &mut out);
/// lm.push(StreamId(1), &Element::insert("A", 6, 12), &mut out);
/// assert_eq!(out.len(), 1);
/// // Punctuation forces reconciliation before freezing.
/// lm.push(StreamId(1), &Element::stable(20), &mut out);
/// assert_eq!(out[1], Element::adjust("A", 6, 7, 12));
/// assert_eq!(lm.max_stable(), Time(20));
/// ```
pub type LMergeR3<P> = IndexedMerge<P, R3Kind<P>>;

/// R3's index and output policy (Section V-A).
#[derive(Debug)]
pub struct R3Kind<P: Payload> {
    index: In2t<P>,
    /// Per-input `Ve` entries across all nodes.
    entries: usize,
    /// Those of them that nodes hold outside themselves (input ids from
    /// [`INLINE_INPUTS`] on).
    spilled: usize,
    insert: InsertPolicy,
    adjust: AdjustPolicy,
    stable: StablePolicy,
    /// The stream that last advanced `MaxStable` (drives `FollowLeader`).
    leader: Option<StreamId>,
}

impl<P: Payload> LMergeR3<P> {
    /// An R3 merge over `n` initially attached inputs, default policy.
    pub fn new(n: usize) -> LMergeR3<P> {
        LMergeR3::with_policy(n, MergePolicy::paper_default())
    }

    /// An R3 merge with an explicit policy bundle (Section V-A).
    pub fn with_policy(n: usize, policy: MergePolicy) -> LMergeR3<P> {
        let kind = R3Kind {
            index: In2t::new(),
            entries: 0,
            spilled: 0,
            insert: policy.insert,
            adjust: policy.adjust,
            stable: policy.stable,
            leader: None,
        };
        IndexedMerge::from_kind(n, kind, policy.robustness)
    }

    /// Number of live `(Vs, Payload)` nodes (the paper's `w`).
    #[cfg(test)]
    pub(crate) fn live_nodes(&self) -> usize {
        self.kind.index.len()
    }
}

impl<P: Payload> NodeKind<P> for R3Kind<P> {
    const VARIANT: VariantKind = VariantKind::R3;
    const LEVEL: RLevel = RLevel::R3;

    #[inline]
    fn insert(&mut self, cx: &mut Ctx<'_, P>, e: &Event<P>) {
        let s = cx.input;
        let stats = &mut cx.books.stats;
        // An end time of −∞ is no event's (`Ve ≥ Vs` always) and is how the
        // index spells "not emitted": an input that sends one is lying.
        if e.ve == Time::MIN {
            stats.dropped += 1;
            return;
        }
        // Line 6: a missing node below MaxStable was already frozen (and
        // possibly deleted); the element is stale. One search either way.
        let link = e.vs >= cx.books.max_stable;
        let Some((node, fresh)) = self.index.get_or_link(e.vs, &e.payload, link) else {
            stats.dropped += 1;
            return;
        };
        // Line 12: record this stream's view of the end time. Location 2
        // (Section V-A) decides whether this presentation is the event's
        // first emission — a pending Quorum may now be satisfied — all on
        // the one lookup's borrow, with bookkeeping deferred past it.
        let was_new = node.set_input(s, e.ve);
        let emit = node.output_ve().is_none()
            && match self.insert {
                InsertPolicy::Immediate => fresh,
                InsertPolicy::WaitHalfFrozen => false,
                InsertPolicy::Quorum(k) => node.support() >= k,
                // Before any punctuation there is no leader; stay
                // responsive and treat every input as leading.
                InsertPolicy::FollowLeader => self.leader.is_none_or(|l| l == s),
            };
        if emit {
            node.set_output_ve(Some(e.ve));
        }
        if was_new {
            self.entries += 1;
            self.spilled += usize::from(s.0 as usize >= INLINE_INPUTS);
            cx.live.note(s);
        }
        if emit {
            stats.inserts_out += 1;
            cx.out.push(Element::Insert(e.clone()));
        } else {
            stats.dropped += 1;
        }
    }

    #[inline]
    fn adjust(&mut self, cx: &mut Ctx<'_, P>, payload: &P, vs: Time, _vold: Time, ve: Time) {
        // Line 13: adjusts for unknown nodes are stale — drop. So is one to
        // −∞ (see `insert`), before it can touch a node.
        let max_stable = cx.books.max_stable;
        let node = (ve != Time::MIN)
            .then(|| self.index.get_mut(vs, payload))
            .flatten();
        let Some(node) = node else {
            cx.books.stats.dropped += 1;
            return;
        };
        let was_new = node.set_input(cx.input, ve);
        // Location 1 (Section V-A): the default policy absorbs the adjust;
        // the eager policy reflects it immediately when doing so cannot
        // contradict the output's stable point. Either way the node is
        // touched exactly once — no second lookup.
        let mut emitted = None;
        if self.adjust == AdjustPolicy::Eager {
            if let Some(out_ve) = node.output_ve() {
                // The new end must itself respect the output's stable point
                // (a removal counts as legal only while Vs is unfrozen).
                let legal = if ve == vs {
                    vs >= max_stable
                } else {
                    ve >= max_stable
                };
                if legal && out_ve != ve {
                    // A removal (ve == vs) takes the event out of the
                    // output entirely: the node reverts to "not emitted"
                    // so later activity may legally re-insert it.
                    node.set_output_ve((ve != vs).then_some(ve));
                    emitted = Some(out_ve);
                }
            }
        }
        if was_new {
            self.entries += 1;
            self.spilled += usize::from(cx.input.0 as usize >= INLINE_INPUTS);
            cx.live.note(cx.input);
        }
        if let Some(out_ve) = emitted {
            cx.books.stats.adjusts_out += 1;
            cx.out
                .push(Element::adjust(payload.clone(), vs, out_ve, ve));
        }
    }

    fn effective_stable(&self, t: Time) -> Time {
        self.stable.effective(t)
    }

    #[inline(never)]
    fn sweep(&mut self, cx: &mut Ctx<'_, P>, t: Time) {
        // Lines 17–27: reconcile every node that is (or becomes) half frozen
        // with the view of the stream that is driving progress. One in-place
        // sweep: no payload clones, no per-key re-lookup, retirement during
        // the walk — and no visit to tiers an earlier sweep settled past `t`.
        let s = cx.input;
        let max_stable = cx.books.max_stable;
        let stats = &mut cx.books.stats;
        let inputs = &cx.books.inputs;
        let (live, out) = (&mut *cx.live, &mut *cx.out);
        let (entries, spilled) = (&mut self.entries, &mut self.spilled);
        self.index.sweep_half_frozen(t, |vs, payload, node| {
            // Line 20: if the driving stream lacks the event entirely, its
            // effective end time is Vs — i.e. the event does not exist.
            let in_ve = node.input_ve(s).unwrap_or(vs);
            // Emitting the correction must keep the output stream well
            // formed w.r.t. its *current* stable point. Mutually consistent
            // inputs always satisfy this; the guard protects the output if
            // an input lies.
            let legal = if in_ve == vs {
                vs >= max_stable
            } else {
                in_ve >= max_stable
            };
            match node.output_ve() {
                Some(out_ve) => {
                    // Lines 22–25: correct the output only when the
                    // divergence is about to become unfixable.
                    if legal && in_ve != out_ve && (in_ve < t || out_ve < t) {
                        node.set_output_ve(Some(in_ve));
                        stats.adjusts_out += 1;
                        out.push(Element::adjust(payload.clone(), vs, out_ve, in_ve));
                    }
                }
                None => {
                    // Deferred-insert policies: the event's existence is now
                    // settled, so it must be emitted before the stable.
                    if in_ve != vs && vs >= max_stable {
                        node.set_output_ve(Some(in_ve));
                        stats.inserts_out += 1;
                        out.push(Element::insert(payload.clone(), vs, in_ve));
                    }
                }
            }
            // Lines 26–27: fully frozen (or nonexistent) per the driving
            // stream — the node is settled and can be dropped.
            if in_ve < t {
                *entries -= node.support() as usize;
                *spilled -= node.spilled();
                for (id, _) in node.entries() {
                    live.release(id.0, 1);
                }
                SweepAction::Retire
            } else if inputs.live_ids().all(|id| node.has_input(id)) {
                // Every input that can ever drive a stable has its own end
                // time on record, and `MaxStable` is about to pass `vs`
                // (which rules out a deferred first emission): until one of
                // the recorded end times falls below a stable, or the node
                // is touched, whichever input drives finds nothing to
                // correct and nothing to retire here.
                SweepAction::KeepUntil(node.min_ve())
            } else {
                // An attached input has not delivered the event: to that
                // input it does not exist, and its next stable retires the
                // node. Stay due.
                SweepAction::Keep
            }
        });
        // Lines 28–29. This stream is now the leading one.
        self.leader = Some(s);
    }

    fn min_live_vs(&self) -> Option<Time> {
        self.index.min_vs()
    }

    fn attach(&mut self, _allocated: usize) {
        // The joiner lacks every live node: no tier is settled for it.
        self.index.mark_all_due();
    }

    fn detach(&mut self, input: StreamId) {
        let spills = usize::from(input.0 as usize >= INLINE_INPUTS);
        for node in self.index.nodes_mut() {
            if node.remove_input(input) {
                self.entries -= 1;
                self.spilled -= spills;
            }
        }
    }

    /// What the index allocates ([`In2t::memory_bytes`]: tiers, nodes,
    /// shared payloads) plus the entries nodes spill out of themselves. A
    /// pure function of the contents — a restored index reports the same
    /// bytes as its source — and O(1).
    fn memory_bytes(&self) -> usize {
        self.index.memory_bytes() + self.spilled * SPILLED_ENTRY
    }

    fn export(&self, cut: &mut MergeCut<P>, changed_only: bool) {
        cut.image.leader = self.leader.map(|s| s.0);
        cut.entries = self.index.len();
        let mut keys = Vec::new();
        self.index.export(
            changed_only,
            &mut keys,
            &mut cut.image.entries,
            |vs, payload, node| {
                StateEntry {
                    vs,
                    payload: payload.clone(),
                    // In input id order: the image is canonical.
                    per_input: node.entries().map(|(s, ve)| (s.0, vec![(ve, 1)])).collect(),
                    output: node.output_ve().map(|v| vec![(v, 1)]).unwrap_or_default(),
                }
            },
        );
        cut.tiers.push(keys);
    }

    fn clear_changed(&mut self) {
        self.index.clear_changed();
    }

    fn restore(&mut self, img: MergeStateImage<P>) {
        self.leader = img.leader.map(StreamId);
        self.index = In2t::new();
        (self.entries, self.spilled) = (0, 0);
        for entry in img.entries {
            let node = self.index.add_node(entry.vs, entry.payload);
            for (id, m) in &entry.per_input {
                // −∞ is no end time (see `insert`); an image that says so
                // records nothing for the input.
                if let Some(&(ve, _)) = m.first().filter(|&&(ve, _)| ve != Time::MIN) {
                    if node.set_input(StreamId(*id), ve) {
                        self.entries += 1;
                        self.spilled += usize::from(*id as usize >= INLINE_INPUTS);
                    }
                }
            }
            node.set_output_ve(entry.output.first().map(|&(ve, _)| ve));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::LogicalMerge;
    use crate::in2t::Node;
    use crate::mem::btree_bytes;
    use crate::tier::tier_bytes;
    use lmerge_temporal::reconstitute::tdb_of;

    type E = Element<&'static str>;

    #[test]
    fn memory_charges_tiers_nodes_payloads_and_entries() {
        // Known shape: 10 nodes in one tier, one inline entry each, static
        // payloads (zero heap bytes) — the charge is pinned exactly: the
        // tier (index entry and slab slot, holding the head node) and nine
        // `rest` slots.
        let keys = ["a", "b", "c", "d", "e", "f", "g", "h", "i", "j"];
        let (mut one, mut spread) = (LMergeR3::new(1), LMergeR3::new(1));
        let mut out = Vec::new();
        for (i, k) in keys.into_iter().enumerate() {
            one.push(StreamId(0), &E::insert(k, 1, 50), &mut out);
            spread.push(StreamId(0), &E::insert(k, i as i64, i as i64 + 1), &mut out);
        }
        let tier = tier_bytes::<&str, Node>();
        let slot = btree_bytes(1, std::mem::size_of::<(&str, Node)>());
        assert_eq!(one.kind.memory_bytes(), tier + 9 * slot);
        // The same ten nodes over ten tiers: each is a tier's head.
        assert_eq!(spread.kind.memory_bytes(), 10 * tier);
        // Retirement takes tiers, nodes and entries with it.
        spread.push(StreamId(0), &E::stable(5), &mut out);
        assert_eq!(spread.kind.entries, 6, "Ve 1 to 4 retired");
        assert_eq!(spread.kind.memory_bytes(), 6 * tier);
        spread.push(StreamId(0), &E::stable(60), &mut out);
        assert_eq!((spread.kind.entries, spread.kind.memory_bytes()), (0, 0));
    }

    #[test]
    fn memory_shares_payloads_across_inputs() {
        use lmerge_temporal::{HeapSize, Value};
        let p = Value::synthetic(1, 1000);
        let mut lm = LMergeR3::new(10);
        let mut out = Vec::new();
        for s in 0..10 {
            lm.push(StreamId(s), &Element::insert(p.clone(), 1, 5), &mut out);
        }
        // Ten inputs, but only one kilobyte of payload is charged; the
        // entries of inputs 4 to 9 spill out of the node.
        assert_eq!(
            lm.kind.memory_bytes(),
            tier_bytes::<Value, Node>() + p.heap_bytes() + 6 * SPILLED_ENTRY
        );
        lm.detach(StreamId(7));
        assert_eq!(
            lm.kind.memory_bytes(),
            tier_bytes::<Value, Node>() + p.heap_bytes() + 5 * SPILLED_ENTRY
        );
    }

    #[test]
    fn detach_purges_the_inputs_entries_and_their_count() {
        let mut lm = LMergeR3::new(2);
        let mut out = Vec::new();
        lm.push(StreamId(0), &E::insert("A", 1, 5), &mut out);
        lm.push(StreamId(1), &E::insert("A", 1, 6), &mut out);
        lm.push(StreamId(1), &E::insert("B", 2, 6), &mut out);
        assert_eq!(lm.kind.entries, 3);
        lm.detach(StreamId(1));
        assert_eq!(lm.kind.entries, 1);
        let a = lm.kind.index.get(Time(1), &"A").unwrap();
        assert!(a.has_input(StreamId(0)) && !a.has_input(StreamId(1)));
        assert_eq!(lm.kind.index.get(Time(2), &"B").unwrap().support(), 0);
    }

    #[test]
    fn restore_rebuilds_an_identical_index() {
        let mut lm = LMergeR3::with_policy(3, MergePolicy::conservative());
        let mut out = Vec::new();
        lm.push(StreamId(0), &E::insert("A", 1, 5), &mut out);
        lm.push(StreamId(2), &E::insert("A", 1, 9), &mut out);
        lm.push(StreamId(1), &E::insert("B", 7, 8), &mut out);
        lm.push(StreamId(2), &E::stable(2), &mut out);
        let mut back: LMergeR3<&str> = LMergeR3::new(3);
        assert!(back.restore_state(lm.export_state().unwrap()));
        assert_eq!(back.kind.entries, lm.kind.entries);
        assert_eq!(back.kind.memory_bytes(), lm.kind.memory_bytes());
        let nodes = |m: &LMergeR3<&'static str>| -> Vec<_> {
            m.kind
                .index
                .iter()
                .map(|(vs, p, n)| {
                    let mut ins: Vec<_> = n.entries().collect();
                    ins.sort_by_key(|e| e.0);
                    (vs, *p, ins, n.output_ve())
                })
                .collect()
        };
        assert_eq!(nodes(&back), nodes(&lm), "canonical iteration and nodes");
        assert_eq!(
            nodes(&lm)[0],
            (
                Time(1),
                "A",
                vec![(StreamId(0), Time(5)), (StreamId(2), Time(9))],
                Some(Time(9))
            )
        );
    }

    #[test]
    fn first_insert_wins_divergent_ends_reconciled_on_stable() {
        let mut lm = LMergeR3::new(2);
        let mut out = Vec::new();
        // Input 0 believes A ends at 7; input 1 knows it ends at 12.
        lm.push(StreamId(0), &E::insert("A", 6, 7), &mut out);
        lm.push(StreamId(1), &E::insert("A", 6, 12), &mut out);
        assert_eq!(out, vec![E::insert("A", 6, 7)], "first presentation flows");
        // Input 1 drives progress; output must be corrected to 12 before
        // the stable freezes it at 7.
        lm.push(StreamId(1), &E::stable(20), &mut out);
        assert_eq!(
            out[1..],
            [E::adjust("A", 6, 7, 12), E::stable(20)],
            "divergence fixed exactly when it would freeze"
        );
        let tdb = tdb_of(&out).unwrap();
        assert_eq!(tdb.count(&"A", Time(6), Time(12)), 1);
    }

    #[test]
    fn an_end_time_of_minus_infinity_is_dropped_at_the_boundary() {
        // −∞ is the index's "not emitted" marker. A lying input that sends
        // it must not get an event out that the node then forgets it emitted
        // (a second input under Quorum/FollowLeader, or the next stable,
        // would emit it again).
        for insert in [InsertPolicy::Immediate, InsertPolicy::FollowLeader] {
            let policy = MergePolicy {
                insert,
                adjust: AdjustPolicy::Eager,
                ..MergePolicy::paper_default()
            };
            let mut lm = LMergeR3::with_policy(2, policy);
            let mut out = Vec::new();
            // (Built by hand: the constructor asserts `Vs < Ve` in debug
            // builds; the wire decoder does not.)
            let lie = lmerge_temporal::Event {
                vs: Time(6),
                ve: Time::MIN,
                payload: "A",
            };
            lm.push(StreamId(0), &E::Insert(lie), &mut out);
            assert!(out.is_empty() && lm.live_nodes() == 0, "{insert:?}");
            lm.push(StreamId(1), &E::insert("A", 6, 9), &mut out);
            lm.push(StreamId(0), &E::adjust("A", 6, 9, Time::MIN), &mut out);
            lm.push(StreamId(1), &E::stable(8), &mut out);
            assert_eq!(out, vec![E::insert("A", 6, 9), E::stable(8)], "{insert:?}");
            assert_eq!(lm.stats().dropped, 2);
        }
    }

    #[test]
    fn adjusts_are_absorbed_lazily() {
        let mut lm = LMergeR3::new(1);
        let mut out = Vec::new();
        lm.push(StreamId(0), &E::insert("A", 6, 20), &mut out);
        lm.push(StreamId(0), &E::adjust("A", 6, 20, 30), &mut out);
        lm.push(StreamId(0), &E::adjust("A", 6, 30, 25), &mut out);
        assert_eq!(out.len(), 1, "no chatty intermediate adjusts");
        lm.push(StreamId(0), &E::stable(40), &mut out);
        // One corrective adjust to the final value, then the stable.
        assert_eq!(out[1..], [E::adjust("A", 6, 20, 25), E::stable(40)]);
    }

    #[test]
    fn eager_policy_reflects_adjusts() {
        let mut lm = LMergeR3::with_policy(1, MergePolicy::eager());
        let mut out = Vec::new();
        lm.push(StreamId(0), &E::insert("A", 6, 20), &mut out);
        lm.push(StreamId(0), &E::adjust("A", 6, 20, 30), &mut out);
        assert_eq!(out[1], E::adjust("A", 6, 20, 30));
    }

    #[test]
    fn missing_event_in_driving_stream_is_deleted() {
        let mut lm = LMergeR3::new(2);
        let mut out = Vec::new();
        // Input 0 produced a spurious unfrozen event input 1 never saw.
        lm.push(StreamId(0), &E::insert("X", 5, 9), &mut out);
        lm.push(StreamId(1), &E::stable(10), &mut out);
        // The output deletes X (adjust to Ve = Vs) before freezing past it.
        assert_eq!(
            out[1..],
            [E::adjust("X", 5, 9, 5), E::stable(10)],
            "event cancelled when progress-driving stream lacks it"
        );
        assert!(tdb_of(&out).unwrap().is_empty());
    }

    #[test]
    fn stale_insert_after_freeze_is_dropped() {
        let mut lm = LMergeR3::new(2);
        let mut out = Vec::new();
        lm.push(StreamId(0), &E::insert("A", 5, 8), &mut out);
        lm.push(StreamId(0), &E::stable(10), &mut out);
        out.clear();
        // Input 1 lags and replays A — already settled.
        lm.push(StreamId(1), &E::insert("A", 5, 8), &mut out);
        assert!(out.is_empty());
        assert_eq!(lm.stats().dropped, 1);
    }

    #[test]
    fn wait_half_frozen_policy_defers_output() {
        let mut lm = LMergeR3::with_policy(1, MergePolicy::conservative());
        let mut out = Vec::new();
        lm.push(StreamId(0), &E::insert("A", 6, 20), &mut out);
        assert!(out.is_empty(), "conservative: nothing until half frozen");
        lm.push(StreamId(0), &E::stable(10), &mut out);
        assert_eq!(out, vec![E::insert("A", 6, 20), E::stable(10)]);
    }

    #[test]
    fn quorum_policy_waits_for_agreement() {
        let mut lm = LMergeR3::with_policy(
            3,
            MergePolicy {
                insert: InsertPolicy::Quorum(2),
                ..Default::default()
            },
        );
        let mut out = Vec::new();
        lm.push(StreamId(0), &E::insert("A", 6, 20), &mut out);
        assert!(out.is_empty());
        lm.push(StreamId(1), &E::insert("A", 6, 20), &mut out);
        assert_eq!(out, vec![E::insert("A", 6, 20)], "second input confirms");
    }

    #[test]
    fn theorem1_non_chattiness() {
        // Torture the operator with adjust-heavy inputs; Theorem 1's bound
        // (outputs ≤ inserts received; stables out ≤ stables in) must hold.
        let mut lm = LMergeR3::new(2);
        let mut out = Vec::new();
        for i in 0..100i64 {
            for s in 0..2u32 {
                lm.push(StreamId(s), &E::insert("k", i, i + 10), &mut out);
                lm.push(StreamId(s), &E::adjust("k", i, i + 10, i + 5), &mut out);
                lm.push(StreamId(s), &E::adjust("k", i, i + 5, i + 8), &mut out);
            }
            lm.push(StreamId(0), &E::stable(i), &mut out);
        }
        assert!(lm.stats().satisfies_theorem1(), "{:?}", lm.stats());
    }

    #[test]
    fn nodes_are_freed_when_fully_frozen() {
        let mut lm = LMergeR3::new(1);
        let mut out = Vec::new();
        for i in 0..50i64 {
            lm.push(StreamId(0), &E::insert("k", i, i + 1), &mut out);
        }
        assert_eq!(lm.live_nodes(), 50);
        lm.push(StreamId(0), &E::stable(100), &mut out);
        assert_eq!(lm.live_nodes(), 0, "everything fully frozen and purged");
    }

    #[test]
    fn detach_purges_stream_state() {
        let mut lm = LMergeR3::new(2);
        let mut out = Vec::new();
        lm.push(StreamId(0), &E::insert("A", 6, 7), &mut out);
        lm.push(StreamId(1), &E::insert("A", 6, 12), &mut out);
        lm.detach(StreamId(0));
        // Stream 1 now drives everything; its view (12) wins at freeze time.
        lm.push(StreamId(1), &E::stable(20), &mut out);
        let tdb = tdb_of(&out).unwrap();
        assert_eq!(tdb.count(&"A", Time(6), Time(12)), 1);
    }

    #[test]
    fn output_reconstitutes_to_input_tdb() {
        // Phy1/Phy2 of Table I (translated to the StreamInsight model).
        let phy1: Vec<E> = vec![
            E::insert("B", 8, Time::INFINITY),
            E::insert("A", 6, 12),
            E::adjust("B", 8, Time::INFINITY, Time(10)),
            E::stable(11),
            E::stable(Time::INFINITY),
        ];
        let phy2: Vec<E> = vec![
            E::insert("A", 6, 7),
            E::insert("B", 8, 15),
            E::adjust("A", 6, 7, 12),
            E::adjust("B", 8, 15, 10),
            E::stable(Time::INFINITY),
        ];
        let mut lm = LMergeR3::new(2);
        let mut out = Vec::new();
        // Interleave the two physical streams.
        let mut i1 = phy1.iter();
        let mut i2 = phy2.iter();
        loop {
            match (i1.next(), i2.next()) {
                (None, None) => break,
                (a, b) => {
                    if let Some(e) = a {
                        lm.push(StreamId(0), e, &mut out);
                    }
                    if let Some(e) = b {
                        lm.push(StreamId(1), e, &mut out);
                    }
                }
            }
        }
        let tdb = tdb_of(&out).unwrap();
        assert_eq!(tdb.count(&"A", Time(6), Time(12)), 1);
        assert_eq!(tdb.count(&"B", Time(8), Time(10)), 1);
        assert_eq!(tdb.len(), 2);
    }
}

#[cfg(test)]
mod follow_leader_tests {
    use super::*;
    use crate::api::LogicalMerge;
    use lmerge_temporal::reconstitute::tdb_of;

    type E = Element<&'static str>;

    #[test]
    fn only_leader_drives_output() {
        let mut lm = LMergeR3::with_policy(
            2,
            MergePolicy {
                insert: InsertPolicy::FollowLeader,
                ..Default::default()
            },
        );
        let mut out = Vec::new();
        // Stream 1 establishes itself as the leader.
        lm.push(StreamId(1), &E::insert("A", 1, 9), &mut out);
        lm.push(StreamId(1), &E::stable(2), &mut out);
        out.clear();
        // A follower's new event is recorded but not emitted …
        lm.push(StreamId(0), &E::insert("B", 5, 12), &mut out);
        assert!(out.is_empty(), "follower must not drive output");
        // … until the leader produces it.
        lm.push(StreamId(1), &E::insert("B", 5, 12), &mut out);
        assert_eq!(out, vec![E::insert("B", 5, 12)]);
    }

    #[test]
    fn leadership_moves_with_the_stable_frontier() {
        let mut lm: LMergeR3<&str> = LMergeR3::with_policy(
            2,
            MergePolicy {
                insert: InsertPolicy::FollowLeader,
                ..Default::default()
            },
        );
        let mut out = Vec::new();
        lm.push(StreamId(0), &E::stable(5), &mut out);
        lm.push(StreamId(1), &E::stable(10), &mut out);
        out.clear();
        // Stream 1 leads now.
        lm.push(StreamId(0), &E::insert("X", 20, 30), &mut out);
        assert!(out.is_empty());
        lm.push(StreamId(1), &E::insert("Y", 21, 31), &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn follower_only_events_recovered_at_freeze() {
        let mut lm: LMergeR3<&str> = LMergeR3::with_policy(
            2,
            MergePolicy {
                insert: InsertPolicy::FollowLeader,
                ..Default::default()
            },
        );
        let mut out = Vec::new();
        lm.push(StreamId(1), &E::stable(1), &mut out);
        // Only the follower carries A before the freeze …
        lm.push(StreamId(0), &E::insert("A", 2, 4), &mut out);
        // … and the follower then becomes the one driving progress.
        lm.push(StreamId(0), &E::stable(10), &mut out);
        let tdb = tdb_of(&out).unwrap();
        assert_eq!(tdb.count(&"A", Time(2), Time(4)), 1, "A must not be lost");
    }
}

#[cfg(test)]
mod robustness_tests {
    use super::*;
    use crate::api::LogicalMerge;

    type E = Element<&'static str>;

    #[test]
    fn quarantine_demotes_and_restores_a_stalled_input() {
        use crate::api::InputHealth;
        use crate::policy::RobustnessPolicy;
        let mut lm: LMergeR3<&str> = LMergeR3::with_policy(
            2,
            MergePolicy {
                robustness: RobustnessPolicy {
                    quarantine_lag: Some(5),
                    max_live_entries: None,
                },
                ..Default::default()
            },
        );
        let mut out = Vec::new();
        lm.push(StreamId(1), &E::stable(1), &mut out);
        lm.push(StreamId(0), &E::stable(10), &mut out);
        assert_eq!(
            lm.input_health(StreamId(1)),
            InputHealth::Quarantined,
            "stable 1 trails 10 by more than the 5-unit margin"
        );
        out.clear();
        // Behind-the-frontier punctuation from quarantine stays ignored …
        lm.push(StreamId(1), &E::stable(4), &mut out);
        assert!(out.is_empty());
        assert_eq!(lm.input_health(StreamId(1)), InputHealth::Quarantined);
        // … but its data still merges.
        lm.push(StreamId(1), &E::insert("A", 20, 30), &mut out);
        assert_eq!(out, vec![E::insert("A", 20, 30)]);
        // Catching up to the output stable restores it.
        out.clear();
        lm.push(StreamId(1), &E::stable(12), &mut out);
        assert_eq!(lm.input_health(StreamId(1)), InputHealth::Active);
        assert_eq!(lm.max_stable(), Time(12));
    }

    #[test]
    fn entry_bound_demotes_a_flooding_input() {
        use crate::api::InputHealth;
        use crate::policy::RobustnessPolicy;
        let mut lm: LMergeR3<&str> = LMergeR3::with_policy(
            2,
            MergePolicy {
                robustness: RobustnessPolicy {
                    quarantine_lag: None,
                    max_live_entries: Some(10),
                },
                ..Default::default()
            },
        );
        let mut out = Vec::new();
        for i in 0..20i64 {
            lm.push(StreamId(1), &E::insert("k", i, i + 100), &mut out);
        }
        assert_eq!(lm.input_health(StreamId(1)), InputHealth::Left);
        assert_eq!(lm.live_entries(StreamId(1)), 0, "state released");
        assert_eq!(lm.input_health(StreamId(0)), InputHealth::Active);
        // The surviving input still drives output.
        out.clear();
        lm.push(StreamId(0), &E::insert("x", 500, 600), &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn live_entry_counters_follow_sweep_retirement() {
        let mut lm: LMergeR3<&str> = LMergeR3::new(1);
        let mut out = Vec::new();
        for i in 0..5i64 {
            lm.push(StreamId(0), &E::insert("k", i, i + 1), &mut out);
        }
        assert_eq!(lm.live_entries(StreamId(0)), 5);
        lm.push(StreamId(0), &E::stable(100), &mut out);
        assert_eq!(lm.live_entries(StreamId(0)), 0, "retired with the nodes");
    }
}
