//! Algorithm R4: the fully general LMerge (paper Section IV-E).
//!
//! No restrictions at all: any element kinds in any order, and the TDB is a
//! *multiset* — many events may share `(Vs, Payload)` with different (or
//! equal) `Ve`s. State is the [`In3t`] index; the reconciliation steps are
//! the paper's `AdjustOutputCount()` (equalize the number of output events
//! per key when the key first becomes half frozen) and `AdjustOutput()`
//! (make the output's fully-frozen `Ve` buckets match the progress-driving
//! input exactly before propagating a `stable`).

use crate::api::{BatchMeta, InputHealth, LogicalMerge};
use crate::in3t::{In3t, Node};
use crate::inputs::{InputState, Inputs};
use crate::policy::RobustnessPolicy;
use crate::stats::{InputCounters, MergeStats, PerInput};
use crate::tier::SweepAction;
use lmerge_properties::RLevel;
use lmerge_temporal::{Element, Payload, StreamId, Time};

/// The R4 merge over the three-tier index.
#[derive(Debug)]
pub struct LMergeR4<P: Payload> {
    index: In3t<P>,
    max_stable: Time,
    inputs: Inputs,
    stats: MergeStats,
    per_input: PerInput,
    robustness: RobustnessPolicy,
    /// Live index entries held per input (robustness memory guard).
    live_entries: Vec<u64>,
    /// Where `max_live_entries` demotions spill their half-frozen state
    /// (none: demotion drops it, the pre-durability behaviour).
    spill: crate::state::SpillSlot<P>,
}

impl<P: Payload> LMergeR4<P> {
    /// An R4 merge over `n` initially attached inputs.
    pub fn new(n: usize) -> LMergeR4<P> {
        LMergeR4::with_robustness(n, RobustnessPolicy::off())
    }

    /// An R4 merge with runtime robustness guards (DESIGN.md §10).
    pub fn with_robustness(n: usize, robustness: RobustnessPolicy) -> LMergeR4<P> {
        LMergeR4 {
            index: In3t::new(),
            max_stable: Time::MIN,
            inputs: Inputs::new(n),
            stats: MergeStats::default(),
            per_input: PerInput::new(n),
            robustness,
            live_entries: vec![0; n],
            spill: crate::state::SpillSlot::default(),
        }
    }

    /// Number of live `(Vs, Payload)` nodes.
    pub fn live_nodes(&self) -> usize {
        self.index.len()
    }

    /// Live index entries currently attributed to `input` (feeds the
    /// robustness memory guard; exposed for tests and diagnostics).
    pub fn live_entries(&self, input: StreamId) -> u64 {
        self.live_entries
            .get(input.0 as usize)
            .copied()
            .unwrap_or(0)
    }

    fn note_live_entry(&mut self, s: StreamId) {
        let i = s.0 as usize;
        if i >= self.live_entries.len() {
            self.live_entries.resize(i + 1, 0);
        }
        self.live_entries[i] += 1;
    }

    /// Bounded-memory guard: demote (detach) an input once it exceeds its
    /// live-entry budget (checked at push/push_batch boundaries). With a
    /// spill handler installed, the input's half-frozen multisets leave as
    /// a sorted run before the detach drops them from the index.
    fn enforce_entry_bound(&mut self, input: StreamId) {
        if let Some(bound) = self.robustness.max_live_entries {
            if self.live_entries(input) > bound {
                if let Some(handler) = self.spill.0.as_mut() {
                    let run: Vec<crate::state::StateEntry<P>> = self
                        .index
                        .iter_all()
                        .filter_map(|(vs, payload, node)| {
                            let counts = node.per_input.get(&input.0)?;
                            Some(crate::state::StateEntry {
                                vs,
                                payload: payload.clone(),
                                per_input: vec![(
                                    input.0,
                                    counts.iter().map(|(&ve, &c)| (ve, c as u64)).collect(),
                                )],
                                output: node
                                    .output
                                    .iter()
                                    .map(|(&ve, &c)| (ve, c as u64))
                                    .collect(),
                            })
                        })
                        .collect();
                    if !run.is_empty() {
                        handler.spill(input, &run);
                    }
                }
                self.detach(input);
            }
        }
    }

    /// Quarantine any active input whose announced stable point trails the
    /// freshly advanced output stable `t` by more than the policy margin.
    fn quarantine_laggards(&mut self, s: StreamId, t: Time) {
        let Some(lag) = self.robustness.quarantine_lag else {
            return;
        };
        if t == Time::INFINITY {
            return;
        }
        let threshold = t.saturating_sub(lag);
        for (i, c) in self.per_input.counters().iter().enumerate() {
            let id = StreamId(i as u32);
            if id != s && c.last_stable != Time::MIN && c.last_stable < threshold {
                self.inputs.quarantine(id);
            }
        }
    }

    /// `AdjustOutputCount`: when `(vs, payload)` first becomes half frozen,
    /// force the *number* of output events for the key to equal the number
    /// in the progress-driving input `s`. Operates on an already-borrowed
    /// node so the stable sweep can call it without re-looking the key up.
    fn adjust_output_count(
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
    /// [`LMergeR4::adjust_output_count`]; `old_stable` is the operator's
    /// `MaxStable` before this stable began.
    #[allow(clippy::too_many_arguments)]
    fn adjust_output(
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

    fn on_insert(&mut self, s: StreamId, e: &lmerge_temporal::Event<P>, out: &mut Vec<Element<P>>) {
        // Lines 4–7: below MaxStable only an existing node may still absorb
        // the element; a missing one was frozen and dropped. One lookup
        // either way — `entry` is only taken on the unfrozen side.
        let max_stable = self.max_stable;
        let node = if e.vs < max_stable {
            match self.index.get_mut(e.vs, &e.payload) {
                Some(node) => node,
                None => {
                    self.stats.dropped += 1;
                    return;
                }
            }
        } else {
            self.index.entry(e.vs, &e.payload)
        };
        node.increment(s, e.ve);
        // Lines 9–11: output only while the key is unfrozen and this input
        // has presented more events than we have emitted.
        if e.vs >= max_stable && node.count_of(s) > node.count_out() {
            node.out_increment(e.ve);
            self.stats.inserts_out += 1;
            out.push(Element::Insert(e.clone()));
        } else {
            self.stats.dropped += 1;
        }
        self.note_live_entry(s);
    }

    fn on_adjust(&mut self, s: StreamId, payload: &P, vs: Time, vold: Time, ve: Time) {
        // Lines 13–15 (absorbed silently; output reconciled lazily).
        let Some(node) = self.index.get_mut(vs, payload) else {
            self.stats.dropped += 1;
            return;
        };
        let mut removed = false;
        if node.decrement(s, vold) {
            if ve != vs {
                node.increment(s, ve);
            } else {
                removed = true;
            }
        } else {
            self.stats.dropped += 1;
        }
        if removed {
            if let Some(c) = self.live_entries.get_mut(s.0 as usize) {
                *c = c.saturating_sub(1);
            }
        }
    }

    fn on_stable(&mut self, s: StreamId, t: Time, out: &mut Vec<Element<P>>) {
        if t <= self.max_stable {
            return;
        }
        // One in-place sweep over the half-frozen prefix: no key clones, no
        // re-lookups, retirement during the walk, and no visit to tiers an
        // earlier sweep settled past `t`.
        let old_stable = self.max_stable;
        let stats = &mut self.stats;
        let live_entries = &mut self.live_entries;
        let inputs = &self.inputs;
        self.index.sweep_half_frozen(t, |vs, payload, node| {
            // Lines 20–22: first half-freeze of the key → equalize counts.
            if vs >= old_stable {
                Self::adjust_output_count(node, payload, vs, s, stats, out);
            }
            // Lines 23–26: make freezing buckets match exactly.
            Self::adjust_output(node, payload, vs, s, t, old_stable, stats, out);
            // Lines 27–28: everything for the key fully frozen → drop it.
            if node.max_ve(s).is_none_or(|m| m < t) {
                for (id, counts) in &node.per_input {
                    if let Some(c) = live_entries.get_mut(*id as usize) {
                        *c = c.saturating_sub(counts.values().sum::<usize>() as u64);
                    }
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
        self.max_stable = t;
        self.inputs.on_stable_advance(t);
        self.quarantine_laggards(s, t);
        self.stats.stables_out += 1;
        out.push(Element::Stable(t));
    }
}

impl<P: Payload> LogicalMerge<P> for LMergeR4<P> {
    fn push(&mut self, input: StreamId, element: &Element<P>, out: &mut Vec<Element<P>>) {
        self.per_input.on_element(input, element);
        match element {
            Element::Insert(e) => {
                self.stats.inserts_in += 1;
                if !self.inputs.accepts_data(input) {
                    return;
                }
                self.on_insert(input, e, out);
                self.enforce_entry_bound(input);
            }
            Element::Adjust {
                payload,
                vs,
                vold,
                ve,
            } => {
                self.stats.adjusts_in += 1;
                if !self.inputs.accepts_data(input) {
                    return;
                }
                self.on_adjust(input, payload, *vs, *vold, *ve);
                self.enforce_entry_bound(input);
            }
            Element::Stable(t) => {
                self.stats.stables_in += 1;
                // A quarantined input announcing a stable at or past the
                // output's has caught back up — restore it before the gate.
                if *t >= self.max_stable && self.inputs.state(input) == InputState::Quarantined {
                    self.inputs.restore(input);
                }
                if !self.inputs.accepts_stable(input) {
                    return;
                }
                self.on_stable(input, *t, out);
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
        self.per_input
            .on_data_batch(input, meta.inserts as u64, meta.adjusts as u64);
        self.stats.inserts_in += meta.inserts as u64;
        self.stats.adjusts_in += meta.adjusts as u64;
        if !self.inputs.accepts_data(input) {
            return;
        }
        // O(1) frozen-prefix discard: the whole `Vs` range is below both
        // `MaxStable` and the smallest live node, so every element would
        // individually resolve to "stale, no node" and be dropped. Safe
        // against detach between batches for the same reason as in R3:
        // `min_live_vs` is recomputed per call and `purge_stream` never
        // removes nodes, so the bound can only tighten.
        if meta.max_vs < self.max_stable && self.index.min_live_vs().is_none_or(|m| meta.max_vs < m)
        {
            self.stats.dropped += meta.data() as u64;
            return;
        }
        for e in elements {
            match e {
                Element::Insert(ev) => self.on_insert(input, ev, out),
                Element::Adjust {
                    payload,
                    vs,
                    vold,
                    ve,
                } => self.on_adjust(input, payload, *vs, *vold, *ve),
                Element::Stable(_) => unreachable!("data-only batch"),
            }
        }
        self.enforce_entry_bound(input);
    }

    fn attach(&mut self, join_time: Time) -> StreamId {
        self.per_input.on_attach();
        // The joiner lacks every live node: no tier is settled for it.
        self.index.mark_all_due();
        self.inputs.attach(join_time)
    }

    fn detach(&mut self, input: StreamId) {
        self.inputs.detach(input);
        self.index.purge_stream(input);
        if let Some(c) = self.live_entries.get_mut(input.0 as usize) {
            *c = 0;
        }
    }

    fn max_stable(&self) -> Time {
        self.max_stable
    }

    fn stats(&self) -> MergeStats {
        self.stats
    }

    fn input_counters(&self) -> &[InputCounters] {
        self.per_input.counters()
    }

    fn input_health(&self, input: StreamId) -> InputHealth {
        self.inputs.state(input).into()
    }

    fn health_transitions(&self) -> crate::inputs::HealthTransitions {
        self.inputs.transitions()
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.index.memory_bytes()
            + self.inputs.memory_bytes()
            + self.per_input.memory_bytes()
    }

    fn level(&self) -> RLevel {
        RLevel::R4
    }

    fn export_state(&self) -> Option<crate::state::MergeStateImage<P>> {
        let mut img = crate::state::MergeStateImage::with_common(
            crate::state::VariantKind::R4,
            &self.inputs,
            &self.per_input,
            self.stats,
        );
        img.max_stable = self.max_stable;
        img.live_entries = self.live_entries.clone();
        img.entries = self
            .index
            .iter_all()
            .map(|(vs, payload, node)| crate::state::StateEntry {
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
            })
            .collect();
        Some(img)
    }

    fn restore_state(&mut self, image: crate::state::MergeStateImage<P>) -> bool {
        if image.kind != crate::state::VariantKind::R4 {
            return false;
        }
        self.stats = image.apply_common(&mut self.inputs, &mut self.per_input);
        self.max_stable = image.max_stable;
        self.live_entries = image.live_entries.clone();
        self.index = In3t::new();
        for entry in &image.entries {
            let node = self.index.entry(entry.vs, &entry.payload);
            node.per_input = entry
                .per_input
                .iter()
                .map(|(id, counts)| {
                    (
                        *id,
                        counts.iter().map(|&(ve, c)| (ve, c as usize)).collect(),
                    )
                })
                .collect();
            node.output = entry
                .output
                .iter()
                .map(|&(ve, c)| (ve, c as usize))
                .collect();
        }
        true
    }

    fn set_spill_handler(&mut self, handler: Box<dyn crate::state::SpillHandler<P>>) {
        self.spill.0 = Some(handler);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmerge_temporal::reconstitute::tdb_of;
    use lmerge_temporal::Tdb;

    type E = Element<&'static str>;

    fn final_tdb(out: &[E]) -> Tdb<&'static str> {
        tdb_of(out).unwrap()
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
