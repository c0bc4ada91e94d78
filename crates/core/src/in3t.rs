//! The `in3t` (index-3-tier) data structure of Figure 1 (right).
//!
//! R4 permits several events with the same `(Vs, Payload)` and different
//! `Ve`s, plus exact duplicates. `in3t` therefore replaces `in2t`'s single
//! `Ve` per stream with a small ordered map `Ve → count` per stream (the
//! paper uses a red-black tree with counts).
//!
//! Like `in2t`, every tier is an *ordered* map so that iteration is a pure
//! function of the index's contents — the restorable-iteration property
//! the durability layer's byte-identical recovery depends on.

use crate::mem::btree_bytes;
use crate::tier::{SweepAction, Tiers, TIER_OVERHEAD};
use lmerge_temporal::{Payload, StreamId, Time};
use std::collections::BTreeMap;

/// `Ve → multiplicity` for one stream at one `(Vs, Payload)`.
pub type VeCounts = BTreeMap<Time, usize>;

/// Per-key node: shared payload, per-stream `Ve` multisets, output multiset.
#[derive(Clone, Debug, Default)]
pub struct Node {
    /// Each input stream's live `Ve` multiset.
    pub per_input: BTreeMap<u32, VeCounts>,
    /// The output's live `Ve` multiset (the "special key ∞" entry).
    pub output: VeCounts,
}

impl Node {
    /// Total event count for stream `s` at this key (`GetCount(s)`).
    pub fn count_of(&self, s: StreamId) -> usize {
        self.per_input
            .get(&s.0)
            .map(|m| m.values().sum())
            .unwrap_or(0)
    }

    /// Total output event count at this key (`GetCount(∞)`).
    pub fn count_out(&self) -> usize {
        self.output.values().sum()
    }

    /// Largest live `Ve` for stream `s` (`GetMaxVe(s)`), if any.
    pub fn max_ve(&self, s: StreamId) -> Option<Time> {
        self.per_input
            .get(&s.0)
            .and_then(|m| m.keys().next_back().copied())
    }

    /// The smallest `Ve` recorded on the node, inputs and output alike
    /// (`+∞` for a node with neither) — below it no bucket can freeze.
    pub fn min_ve(&self) -> Time {
        self.per_input
            .values()
            .chain(std::iter::once(&self.output))
            .filter_map(|m| m.keys().next().copied())
            .min()
            .unwrap_or(Time::INFINITY)
    }

    /// Add one occurrence of `ve` for stream `s` (`IncrementCount`).
    pub fn increment(&mut self, s: StreamId, ve: Time) {
        *self
            .per_input
            .entry(s.0)
            .or_default()
            .entry(ve)
            .or_insert(0) += 1;
    }

    /// Remove one occurrence of `ve` for stream `s` (`DecrementCount`).
    /// Returns false if no such occurrence was recorded (stale element).
    pub fn decrement(&mut self, s: StreamId, ve: Time) -> bool {
        let Some(m) = self.per_input.get_mut(&s.0) else {
            return false;
        };
        match m.get_mut(&ve) {
            Some(c) if *c > 0 => {
                *c -= 1;
                if *c == 0 {
                    m.remove(&ve);
                }
                true
            }
            _ => false,
        }
    }

    /// Add one output occurrence of `ve`.
    pub fn out_increment(&mut self, ve: Time) {
        *self.output.entry(ve).or_insert(0) += 1;
    }

    /// Remove one output occurrence of `ve`. Returns false when absent.
    pub fn out_decrement(&mut self, ve: Time) -> bool {
        match self.output.get_mut(&ve) {
            Some(c) if *c > 0 => {
                *c -= 1;
                if *c == 0 {
                    self.output.remove(&ve);
                }
                true
            }
            _ => false,
        }
    }
}

/// The three-tier index: `Vs → (Payload → Node)`, nodes holding `Ve` trees.
#[derive(Debug)]
pub struct In3t<P: Payload> {
    tiers: Tiers<P, Node>,
    nodes: usize,
    payload_bytes: usize,
}

impl<P: Payload> Default for In3t<P> {
    fn default() -> Self {
        In3t::new()
    }
}

impl<P: Payload> In3t<P> {
    /// An empty index.
    pub fn new() -> In3t<P> {
        In3t {
            tiers: Tiers::new(),
            nodes: 0,
            payload_bytes: 0,
        }
    }

    /// Number of live `(Vs, Payload)` nodes.
    pub fn len(&self) -> usize {
        self.nodes
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes == 0
    }

    /// Look up the node for `(vs, payload)`.
    pub fn get(&self, vs: Time, payload: &P) -> Option<&Node> {
        self.tiers.get(vs, payload)
    }

    /// Mutable lookup. A hit makes the node's tier due at the next sweep.
    pub fn get_mut(&mut self, vs: Time, payload: &P) -> Option<&mut Node> {
        self.tiers.get_mut(vs, payload)
    }

    /// Get-or-create the node for `(vs, payload)`; its tier becomes due.
    pub fn entry(&mut self, vs: Time, payload: &P) -> &mut Node {
        let m = self.tiers.tier_mut(vs);
        if !m.contains_key(payload) {
            self.nodes += 1;
            self.payload_bytes += payload.heap_bytes();
        }
        m.entry(payload.clone()).or_default()
    }

    /// Remove the node for `(vs, payload)`.
    pub fn remove(&mut self, vs: Time, payload: &P) {
        if self.tiers.remove(vs, payload).is_some() {
            self.nodes -= 1;
            self.payload_bytes -= payload.heap_bytes();
        }
    }

    /// The `stable(t)` walk: visit the nodes with `Vs < t` in
    /// `(Vs, payload)` order with mutable access, at most once each,
    /// unlinking those the visitor retires. Tiers the previous walks
    /// settled past `t` ([`SweepAction::KeepUntil`]) and nothing has
    /// touched since are skipped, exactly as in
    /// [`crate::in2t::In2t::sweep_half_frozen`].
    pub fn sweep_half_frozen<F>(&mut self, t: Time, visit: F)
    where
        F: FnMut(Time, &P, &mut Node) -> SweepAction,
    {
        let In3t {
            tiers,
            nodes,
            payload_bytes,
        } = self;
        tiers.sweep(t, visit, |payload, _| {
            *nodes -= 1;
            *payload_bytes -= payload.heap_bytes();
        });
    }

    /// Make every tier due at the next sweep (an input attached: it lacks
    /// every node, so its first `stable` retires them).
    pub fn mark_all_due(&mut self) {
        self.tiers.mark_all_due();
    }

    /// The smallest live `Vs` in the index, if any (batch-discard bound).
    pub fn min_live_vs(&self) -> Option<Time> {
        self.tiers.min_vs()
    }

    /// Drop all state belonging to stream `s` (detach).
    pub fn purge_stream(&mut self, s: StreamId) {
        for node in self.tiers.nodes_mut() {
            node.per_input.remove(&s.0);
        }
    }

    /// The index's share of a checkpoint cut (see `Tiers::export`).
    pub(crate) fn export<E>(
        &self,
        changed_only: bool,
        keys: &mut Vec<Time>,
        entries: &mut Vec<E>,
        entry: impl FnMut(Time, &P, &Node) -> E,
    ) {
        self.tiers.export(changed_only, keys, entries, entry);
    }

    /// Start the next cut.
    pub(crate) fn clear_changed(&mut self) {
        self.tiers.clear_changed();
    }

    /// Iterate every node in canonical `(Vs, payload)` order, including
    /// nodes at `Vs = ∞`.
    pub fn iter_all(&self) -> impl Iterator<Item = (Time, &P, &Node)> + '_ {
        self.tiers.iter()
    }

    /// Estimated memory: tree structure, the per-`Vs` payload tiers and
    /// each node's per-stream tree (modelled by [`btree_bytes`] so the
    /// figure is a pure function of the contents), shared payloads, and
    /// per-stream `Ve` tree entries.
    pub fn memory_bytes(&self) -> usize {
        const VE_ENTRY: usize = std::mem::size_of::<(Time, usize)>() + 16;
        let mut entries = 0usize;
        let mut tables = btree_bytes(self.nodes, std::mem::size_of::<(P, Node)>());
        for (_, _, node) in self.tiers.iter() {
            tables += btree_bytes(node.per_input.len(), std::mem::size_of::<(u32, VeCounts)>());
            entries += node.output.len();
            entries += node.per_input.values().map(BTreeMap::len).sum::<usize>();
        }
        self.tiers.len() * TIER_OVERHEAD + tables + self.payload_bytes + entries * VE_ENTRY
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_max_ve() {
        let mut ix: In3t<&str> = In3t::new();
        let n = ix.entry(Time(1), &"A");
        n.increment(StreamId(0), Time(5));
        n.increment(StreamId(0), Time(5));
        n.increment(StreamId(0), Time(9));
        assert_eq!(n.count_of(StreamId(0)), 3);
        assert_eq!(n.max_ve(StreamId(0)), Some(Time(9)));
        assert!(n.decrement(StreamId(0), Time(9)));
        assert_eq!(n.max_ve(StreamId(0)), Some(Time(5)));
        assert!(!n.decrement(StreamId(0), Time(9)), "already gone");
    }

    #[test]
    fn entry_is_idempotent_on_node_count() {
        let mut ix: In3t<&str> = In3t::new();
        ix.entry(Time(1), &"A");
        ix.entry(Time(1), &"A");
        assert_eq!(ix.len(), 1);
        ix.remove(Time(1), &"A");
        assert!(ix.is_empty());
    }

    #[test]
    fn output_multiset() {
        let mut ix: In3t<&str> = In3t::new();
        let n = ix.entry(Time(1), &"A");
        n.out_increment(Time(5));
        n.out_increment(Time(5));
        assert_eq!(n.count_out(), 2);
        assert!(n.out_decrement(Time(5)));
        assert_eq!(n.count_out(), 1);
        assert!(!n.out_decrement(Time(7)));
    }

    #[test]
    fn sweep_retires_in_place_with_bookkeeping() {
        let mut ix: In3t<&str> = In3t::new();
        ix.entry(Time(1), &"A").increment(StreamId(0), Time(3));
        ix.entry(Time(5), &"B").increment(StreamId(0), Time(90));
        ix.entry(Time(9), &"C");
        let mut seen = Vec::new();
        ix.sweep_half_frozen(Time(6), |vs, p, node| {
            seen.push((vs, *p));
            if node.max_ve(StreamId(0)).is_none_or(|m| m < Time(6)) {
                SweepAction::Retire
            } else {
                SweepAction::Keep
            }
        });
        assert_eq!(seen, vec![(Time(1), "A"), (Time(5), "B")]);
        assert_eq!(ix.len(), 2, "A retired, B and C live");
        assert!(ix.get(Time(1), &"A").is_none());
        assert_eq!(ix.min_live_vs(), Some(Time(5)));
    }

    #[test]
    fn memory_accounts_for_tier_trees() {
        use crate::mem::btree_bytes;
        let mut ix: In3t<&'static str> = In3t::new();
        let n = ix.entry(Time(1), &"A");
        n.increment(StreamId(0), Time(5));
        n.increment(StreamId(1), Time(6));
        n.out_increment(Time(5));
        // One tier map (1 node), one per-input map (2 streams), three Ve
        // entries (two input, one output) — pinned exactly.
        let expected = TIER_OVERHEAD
            + btree_bytes(1, std::mem::size_of::<(&str, Node)>())
            + btree_bytes(2, std::mem::size_of::<(u32, VeCounts)>())
            + 3 * (std::mem::size_of::<(Time, usize)>() + 16);
        assert_eq!(ix.memory_bytes(), expected);
    }

    #[test]
    fn iter_all_walks_canonical_order_and_supports_rebuild() {
        let mut ix: In3t<&'static str> = In3t::new();
        ix.entry(Time(5), &"B").increment(StreamId(1), Time(9));
        let n = ix.entry(Time(1), &"A");
        n.increment(StreamId(0), Time(5));
        n.increment(StreamId(0), Time(5));
        n.out_increment(Time(5));

        let mut back: In3t<&'static str> = In3t::new();
        for (vs, p, node) in ix.iter_all() {
            let restored = back.entry(vs, p);
            restored.per_input = node.per_input.clone();
            restored.output = node.output.clone();
        }
        assert_eq!(back.len(), ix.len());
        assert_eq!(back.memory_bytes(), ix.memory_bytes());
        let a: Vec<_> = ix.iter_all().map(|(vs, p, _)| (vs, *p)).collect();
        assert_eq!(a, vec![(Time(1), "A"), (Time(5), "B")]);
        let b: Vec<_> = back.iter_all().map(|(vs, p, _)| (vs, *p)).collect();
        assert_eq!(a, b);
        assert_eq!(back.get(Time(1), &"A").unwrap().count_of(StreamId(0)), 2);
        assert_eq!(back.get(Time(1), &"A").unwrap().count_out(), 1);
    }

    /// Sweep at `t` the way R4 does for a settled node; returns the visited
    /// keys.
    fn sweep_settling(ix: &mut In3t<&'static str>, t: i64) -> Vec<&'static str> {
        let mut seen = Vec::new();
        ix.sweep_half_frozen(Time(t), |_, p, node| {
            seen.push(*p);
            if node.min_ve() < Time(t) {
                SweepAction::Retire
            } else {
                SweepAction::KeepUntil(node.min_ve())
            }
        });
        seen
    }

    #[test]
    fn settled_tiers_are_skipped_and_due_ones_always_visited() {
        let mut ix: In3t<&'static str> = In3t::new();
        ix.entry(Time(1), &"A").increment(StreamId(0), Time(40));
        let b = ix.entry(Time(2), &"B");
        b.increment(StreamId(0), Time(90));
        b.out_increment(Time(12));
        assert_eq!(sweep_settling(&mut ix, 10), vec!["A", "B"]);
        assert!(
            sweep_settling(&mut ix, 12).is_empty(),
            "nothing ends below 12"
        );
        assert_eq!(sweep_settling(&mut ix, 13), vec!["B"], "B's output bucket");
        assert_eq!(sweep_settling(&mut ix, 41), vec!["A"]);
        assert!(ix.is_empty());
        assert_eq!(ix.min_live_vs(), None, "emptied tiers unlinked");
        assert_eq!(ix.memory_bytes(), 0);
    }

    #[test]
    fn every_resetting_access_makes_its_tier_due_again() {
        type Touch = fn(&mut In3t<&'static str>);
        let touches: [(&str, Touch); 4] = [
            ("get_mut", |ix| {
                ix.get_mut(Time(1), &"A").unwrap();
            }),
            ("entry", |ix| {
                ix.entry(Time(1), &"A");
            }),
            ("purge_stream", |ix| ix.purge_stream(StreamId(7))),
            ("mark_all_due", |ix| ix.mark_all_due()),
        ];
        for (name, touch) in touches {
            let mut ix: In3t<&'static str> = In3t::new();
            ix.entry(Time(1), &"A").increment(StreamId(0), Time(40));
            sweep_settling(&mut ix, 10);
            assert!(sweep_settling(&mut ix, 11).is_empty(), "{name}: settled");
            touch(&mut ix);
            assert_eq!(sweep_settling(&mut ix, 12), vec!["A"], "{name} must reset");
        }
        let mut ix: In3t<&'static str> = In3t::new();
        ix.entry(Time(1), &"A").increment(StreamId(0), Time(40));
        sweep_settling(&mut ix, 10);
        assert!(ix.get(Time(1), &"A").is_some());
        assert!(ix.get_mut(Time(1), &"Z").is_none());
        assert!(
            sweep_settling(&mut ix, 11).is_empty(),
            "reads reset nothing"
        );
    }

    #[test]
    fn purge_stream_drops_only_that_stream() {
        let mut ix: In3t<&str> = In3t::new();
        let n = ix.entry(Time(1), &"A");
        n.increment(StreamId(0), Time(5));
        n.increment(StreamId(1), Time(6));
        ix.purge_stream(StreamId(0));
        let n = ix.get(Time(1), &"A").unwrap();
        assert_eq!(n.count_of(StreamId(0)), 0);
        assert_eq!(n.count_of(StreamId(1)), 1);
    }
}
