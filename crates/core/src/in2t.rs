//! The `in2t` (index-2-tier) data structure of Figure 1 (left).
//!
//! The top tier orders live `(Vs, Payload)` keys by `Vs` (the paper uses a
//! red-black tree; we use a `BTreeMap<Vs, BTreeMap<Payload, Node>>` — the
//! shared `crate::tier` map — which supports the same `FindHalfFrozen`
//! range scan and lets a sweep skip tiers it has settled). Each node stores the
//! event *once* — payloads are shared across inputs, which is what makes
//! LMR3+ memory nearly independent of the number of inputs — plus a small
//! table mapping each input stream (and the output pseudo-stream) to its
//! current `Ve` for the event.
//!
//! The inner tier is an ordered map rather than a hash map because the
//! durability layer requires *restorable iteration*: a sweep over an index
//! rebuilt from a checkpoint must emit in exactly the order the original
//! would have, and a hash table's slot layout is a function of its full
//! insertion/deletion history, which a rebuild cannot reproduce. Keying by
//! payload `Ord` makes iteration a pure function of the index's contents.

use crate::mem::btree_bytes;
use crate::tier::{Tiers, TIER_OVERHEAD};
use lmerge_temporal::{Payload, StreamId, Time};

pub use crate::tier::SweepAction;

/// Per-key node: one shared event, per-stream current end times.
///
/// The per-stream table is a small vector rather than a hash map: LMerge
/// fans in a handful of streams, and a linear scan over an inline vector is
/// both faster and leaner than a heap-allocated map per event.
#[derive(Clone, Debug)]
pub struct Node {
    /// Current `Ve` on each input stream that has produced the event.
    per_input: Vec<(u32, Time)>,
    /// Current `Ve` on the output — the paper's hash entry with "special
    /// key ∞". [`NOT_EMITTED`] until first emitted (the
    /// `WaitHalfFrozen`/`Quorum` insert policies defer that), which keeps
    /// the field at 8 bytes where an `Option<Time>` takes 16.
    output_ve: Time,
}

/// `output_ve` of a node the output has not seen. −∞ cannot be an event's
/// end time: it lies at or before every `Vs`.
const NOT_EMITTED: Time = Time::MIN;

impl Node {
    fn new() -> Node {
        Node {
            per_input: Vec::new(),
            output_ve: NOT_EMITTED,
        }
    }

    /// Current `Ve` on the output, `None` until first emitted.
    pub fn output_ve(&self) -> Option<Time> {
        (self.output_ve != NOT_EMITTED).then_some(self.output_ve)
    }

    /// Record the output's `Ve` (`None`: taken back out of the output).
    /// `Some(−∞)` would read back as `None`; R3 drops such end times at its
    /// boundary.
    pub fn set_output_ve(&mut self, ve: Option<Time>) {
        debug_assert!(ve != Some(NOT_EMITTED), "−∞ is not an end time");
        self.output_ve = ve.unwrap_or(NOT_EMITTED);
    }

    /// The smallest `Ve` recorded on the node, inputs and output alike
    /// (`+∞` for a node with neither) — below it no recorded end time can
    /// freeze.
    pub fn min_ve(&self) -> Time {
        self.per_input
            .iter()
            .map(|&(_, ve)| ve)
            .chain(self.output_ve())
            .min()
            .unwrap_or(Time::INFINITY)
    }

    /// Record `ve` for input `s`. Returns true when `s` is new to the node.
    pub fn set_input(&mut self, s: StreamId, ve: Time) -> bool {
        for entry in &mut self.per_input {
            if entry.0 == s.0 {
                entry.1 = ve;
                return false;
            }
        }
        self.per_input.push((s.0, ve));
        true
    }

    /// The current `Ve` recorded for input `s`, if any.
    pub fn input_ve(&self, s: StreamId) -> Option<Time> {
        self.per_input
            .iter()
            .find(|(id, _)| *id == s.0)
            .map(|(_, ve)| *ve)
    }

    /// Whether input `s` has produced the event.
    pub fn has_input(&self, s: StreamId) -> bool {
        self.per_input.iter().any(|(id, _)| *id == s.0)
    }

    /// Drop input `s`'s entry. Returns true if one existed.
    pub fn remove_input(&mut self, s: StreamId) -> bool {
        if let Some(pos) = self.per_input.iter().position(|(id, _)| *id == s.0) {
            self.per_input.swap_remove(pos);
            true
        } else {
            false
        }
    }

    /// Number of distinct inputs that have produced the event (drives the
    /// `Quorum` insert policy).
    pub fn support(&self) -> u32 {
        self.per_input.len() as u32
    }

    /// Iterate the `(input, Ve)` entries currently recorded on the node
    /// (robustness accounting: callers decrement per-input live-entry
    /// counters when a node retires).
    pub fn entries(&self) -> impl Iterator<Item = (StreamId, Time)> + '_ {
        self.per_input.iter().map(|&(id, ve)| (StreamId(id), ve))
    }
}

/// The two-tier index: `Vs → (Payload → Node)`.
#[derive(Debug)]
pub struct In2t<P: Payload> {
    tiers: Tiers<P, Node>,
    nodes: usize,
    /// Retained payload heap bytes (each payload stored once).
    payload_bytes: usize,
    /// Total per-input hash entries across all nodes.
    entries: usize,
}

impl<P: Payload> In2t<P> {
    /// An empty index.
    pub fn new() -> In2t<P> {
        In2t {
            tiers: Tiers::new(),
            nodes: 0,
            payload_bytes: 0,
            entries: 0,
        }
    }

    /// Number of live `(Vs, Payload)` nodes (the paper's `w`).
    pub fn len(&self) -> usize {
        self.nodes
    }

    /// Whether the index holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes == 0
    }

    /// Look up the node for `(vs, payload)` (the paper's `SameVsPayload`).
    pub fn get(&self, vs: Time, payload: &P) -> Option<&Node> {
        self.tiers.get(vs, payload)
    }

    /// Mutable lookup; `added_entry` bookkeeping is the caller's job via
    /// [`In2t::note_entry_added`]. A hit makes the node's tier due at the
    /// next sweep.
    pub fn get_mut(&mut self, vs: Time, payload: &P) -> Option<&mut Node> {
        self.tiers.get_mut(vs, payload)
    }

    /// Add a node for `(vs, payload)`; returns a mutable reference.
    /// The caller must not add a node that already exists.
    pub fn add_node(&mut self, vs: Time, payload: P) -> &mut Node {
        self.nodes += 1;
        self.payload_bytes += payload.heap_bytes();
        self.tiers
            .tier_mut(vs)
            .entry(payload)
            .or_insert_with(Node::new)
    }

    /// Record that one per-input hash entry was added somewhere.
    pub fn note_entry_added(&mut self) {
        self.entries += 1;
    }

    /// Remove the node for `(vs, payload)`.
    pub fn remove(&mut self, vs: Time, payload: &P) {
        if let Some(node) = self.tiers.remove(vs, payload) {
            self.nodes -= 1;
            self.payload_bytes -= payload.heap_bytes();
            self.entries -= node.per_input.len();
        }
    }

    /// The paper's `FindHalfFrozen` walk for `stable(t)`: visit the nodes
    /// with `Vs < t` in `(Vs, payload)` order with mutable access, at most
    /// once each, unlinking those the visitor retires with full bookkeeping
    /// — no payload is cloned and no key is looked up twice.
    ///
    /// A tier is skipped when every node in it was last kept with
    /// [`SweepAction::KeepUntil`]`(u)`, `u ≥ t`, and none has been handed
    /// out mutably since ([`In2t::get_mut`], [`In2t::add_node`],
    /// [`In2t::purge_stream`], [`In2t::restore_node`],
    /// [`In2t::mark_all_due`]); a visitor that only ever returns
    /// [`SweepAction::Keep`] sees every node every time.
    pub fn sweep_half_frozen<F>(&mut self, t: Time, visit: F)
    where
        F: FnMut(Time, &P, &mut Node) -> SweepAction,
    {
        let In2t {
            tiers,
            nodes,
            payload_bytes,
            entries,
        } = self;
        tiers.sweep(t, visit, |payload, node| {
            *nodes -= 1;
            *payload_bytes -= payload.heap_bytes();
            *entries -= node.per_input.len();
        });
    }

    /// Make every tier due at the next sweep. For changes outside the
    /// index that alter what a sweep would do with unchanged nodes: a newly
    /// attached input lacks every node, so its first `stable` retires them.
    pub fn mark_all_due(&mut self) {
        self.tiers.mark_all_due();
    }

    /// The smallest live `Vs` in the index, if any — an O(log n) lower
    /// bound that lets callers discard whole stale batches without probing
    /// each element (no node can exist below this timestamp).
    pub fn min_live_vs(&self) -> Option<Time> {
        self.tiers.min_vs()
    }

    /// Drop every per-input entry belonging to `s` (stream detach).
    pub fn purge_stream(&mut self, s: StreamId) {
        for node in self.tiers.nodes_mut() {
            if node.remove_input(s) {
                self.entries -= 1;
            }
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

    /// Rebuild one node from checkpoint data, with full `nodes` /
    /// `payload_bytes` / `entries` bookkeeping. The caller must not restore
    /// a key that already exists.
    pub fn restore_node(
        &mut self,
        vs: Time,
        payload: P,
        per_input: &[(u32, Time)],
        output_ve: Option<Time>,
    ) {
        self.entries += per_input.len();
        let node = self.add_node(vs, payload);
        node.per_input = per_input.to_vec();
        node.set_output_ve(output_ve);
    }

    /// Estimated memory: tree structure, the per-`Vs` payload tiers
    /// (modelled by [`btree_bytes`] so the figure is a pure function of the
    /// contents — a restored index reports the same bytes as its source),
    /// shared payloads, and per-input entries. O(1): [`btree_bytes`] is
    /// linear in the entry count, so the sum over tiers is the model of
    /// all nodes at once.
    pub fn memory_bytes(&self) -> usize {
        const ENTRY_BYTES: usize = std::mem::size_of::<(u32, Time)>() + 16;
        self.tiers.len() * TIER_OVERHEAD
            + btree_bytes(self.nodes, std::mem::size_of::<(P, Node)>())
            + self.payload_bytes
            + self.entries * ENTRY_BYTES
    }
}

impl<P: Payload> Default for In2t<P> {
    fn default() -> Self {
        In2t::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_get_remove() {
        let mut ix: In2t<&str> = In2t::new();
        ix.add_node(Time(5), "A").set_input(StreamId(0), Time(9));
        ix.note_entry_added();
        assert_eq!(ix.len(), 1);
        assert_eq!(
            ix.get(Time(5), &"A").unwrap().input_ve(StreamId(0)),
            Some(Time(9))
        );
        assert!(ix.get(Time(5), &"B").is_none());
        ix.remove(Time(5), &"A");
        assert!(ix.is_empty());
    }

    #[test]
    fn support_counts_distinct_inputs() {
        let mut ix: In2t<&str> = In2t::new();
        let n = ix.add_node(Time(1), "A");
        n.set_input(StreamId(0), Time(5));
        n.set_input(StreamId(0), Time(7)); // same input again
        n.set_input(StreamId(1), Time(5));
        assert_eq!(ix.get(Time(1), &"A").unwrap().support(), 2);
    }

    #[test]
    fn purge_stream_removes_entries() {
        let mut ix: In2t<&str> = In2t::new();
        let n = ix.add_node(Time(1), "A");
        n.set_input(StreamId(0), Time(5));
        n.set_input(StreamId(1), Time(6));
        ix.note_entry_added();
        ix.note_entry_added();
        ix.purge_stream(StreamId(0));
        let node = ix.get(Time(1), &"A").unwrap();
        assert!(!node.has_input(StreamId(0)));
        assert!(node.has_input(StreamId(1)));
    }

    #[test]
    fn sweep_visits_in_vs_order_and_retires_in_place() {
        let mut ix: In2t<&str> = In2t::new();
        ix.add_node(Time(1), "A").set_input(StreamId(0), Time(3));
        ix.note_entry_added();
        ix.add_node(Time(5), "B").set_input(StreamId(0), Time(90));
        ix.note_entry_added();
        ix.add_node(Time(9), "C");
        let mut seen = Vec::new();
        ix.sweep_half_frozen(Time(6), |vs, p, node| {
            seen.push((vs, *p));
            if node.input_ve(StreamId(0)).unwrap_or(vs) < Time(6) {
                SweepAction::Retire
            } else {
                SweepAction::Keep
            }
        });
        assert_eq!(seen, vec![(Time(1), "A"), (Time(5), "B")]);
        assert!(ix.get(Time(1), &"A").is_none(), "A retired");
        assert!(ix.get(Time(5), &"B").is_some(), "B kept");
        assert_eq!(ix.len(), 2);
        assert_eq!(ix.min_live_vs(), Some(Time(5)), "empty tier unlinked");
    }

    #[test]
    fn sweep_can_mutate_kept_nodes() {
        let mut ix: In2t<&str> = In2t::new();
        ix.add_node(Time(1), "A").set_input(StreamId(0), Time(50));
        ix.note_entry_added();
        ix.sweep_half_frozen(Time(10), |_, _, node| {
            node.set_output_ve(Some(Time(50)));
            SweepAction::Keep
        });
        assert_eq!(ix.get(Time(1), &"A").unwrap().output_ve(), Some(Time(50)));
    }

    #[test]
    fn min_live_vs_tracks_smallest_tier() {
        let mut ix: In2t<&str> = In2t::new();
        assert_eq!(ix.min_live_vs(), None);
        ix.add_node(Time(7), "A");
        ix.add_node(Time(3), "B");
        assert_eq!(ix.min_live_vs(), Some(Time(3)));
        ix.remove(Time(3), &"B");
        assert_eq!(ix.min_live_vs(), Some(Time(7)));
    }

    #[test]
    fn memory_accounts_for_tier_trees() {
        use crate::mem::btree_bytes;
        // Known shape: 10 nodes in one tier, no per-input entries, static
        // payloads (zero heap bytes) — the estimate is pinned exactly.
        let mut ix: In2t<&'static str> = In2t::new();
        let keys = ["a", "b", "c", "d", "e", "f", "g", "h", "i", "j"];
        for k in keys {
            ix.add_node(Time(1), k);
        }
        let expected = TIER_OVERHEAD + btree_bytes(10, std::mem::size_of::<(&str, Node)>());
        assert_eq!(ix.memory_bytes(), expected);
        // The same ten nodes spread over ten tiers: only the tier charge
        // moves (the node model is linear, so it is summed in one step).
        let mut spread: In2t<&'static str> = In2t::new();
        for (i, k) in keys.into_iter().enumerate() {
            spread.add_node(Time(i as i64), k);
        }
        assert_eq!(spread.memory_bytes(), expected + 9 * TIER_OVERHEAD);
    }

    #[test]
    fn restore_rebuilds_an_identical_index() {
        let mut ix: In2t<&'static str> = In2t::new();
        let n = ix.add_node(Time(1), "A");
        n.set_input(StreamId(0), Time(5));
        n.set_input(StreamId(2), Time(9));
        n.set_output_ve(Some(Time(5)));
        ix.note_entry_added();
        ix.note_entry_added();
        ix.add_node(Time(7), "B").set_input(StreamId(1), Time(8));
        ix.note_entry_added();

        let mut back: In2t<&'static str> = In2t::new();
        for (vs, p, node) in ix.iter_all() {
            let per_input: Vec<(u32, Time)> = node.entries().map(|(s, ve)| (s.0, ve)).collect();
            back.restore_node(vs, *p, &per_input, node.output_ve());
        }
        assert_eq!(back.len(), ix.len());
        assert_eq!(back.memory_bytes(), ix.memory_bytes());
        let a: Vec<_> = ix.iter_all().map(|(vs, p, _)| (vs, *p)).collect();
        let b: Vec<_> = back.iter_all().map(|(vs, p, _)| (vs, *p)).collect();
        assert_eq!(a, b, "canonical iteration survives the round trip");
        assert_eq!(
            back.get(Time(1), &"A").unwrap().input_ve(StreamId(2)),
            Some(Time(9))
        );
        assert_eq!(back.get(Time(1), &"A").unwrap().output_ve(), Some(Time(5)));
    }

    /// Index with one node per `vs`, each recorded on input 0 with `ve`.
    fn index_of(nodes: &[(i64, &'static str, i64)]) -> In2t<&'static str> {
        let mut ix = In2t::new();
        for &(vs, p, ve) in nodes {
            ix.add_node(Time(vs), p).set_input(StreamId(0), Time(ve));
            ix.note_entry_added();
        }
        ix
    }

    /// Sweep at `t` the way R3 does for a settled node — keep it until its
    /// smallest end time, retire it below `t` — and return the visited keys.
    fn sweep_settling(ix: &mut In2t<&'static str>, t: i64) -> Vec<&'static str> {
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
        let mut ix = index_of(&[(1, "A", 40), (2, "B", 12), (3, "C", 90)]);
        assert_eq!(sweep_settling(&mut ix, 10), vec!["A", "B", "C"]);
        assert!(
            sweep_settling(&mut ix, 12).is_empty(),
            "nothing ends below 12"
        );
        assert_eq!(sweep_settling(&mut ix, 13), vec!["B"], "only B is due");
        assert_eq!(ix.len(), 2, "and it retired");
        assert_eq!(sweep_settling(&mut ix, 41), vec!["A"]);
        assert_eq!(ix.min_live_vs(), Some(Time(3)), "emptied tiers unlinked");
        assert_eq!(ix.memory_bytes(), index_of(&[(3, "C", 90)]).memory_bytes());
    }

    #[test]
    fn every_resetting_access_makes_its_tier_due_again() {
        type Touch = fn(&mut In2t<&'static str>);
        let touches: [(&str, Touch); 5] = [
            ("get_mut", |ix| {
                ix.get_mut(Time(1), &"A").unwrap();
            }),
            ("add_node", |ix| {
                ix.add_node(Time(1), "A2").set_input(StreamId(0), Time(40));
                ix.note_entry_added();
            }),
            ("purge_stream", |ix| ix.purge_stream(StreamId(7))),
            ("restore_node", |ix| {
                ix.restore_node(Time(1), "A2", &[(0, Time(40))], Some(Time(40)));
            }),
            ("mark_all_due", |ix| ix.mark_all_due()),
        ];
        for (name, touch) in touches {
            let mut ix = index_of(&[(1, "A", 40)]);
            sweep_settling(&mut ix, 10);
            assert!(sweep_settling(&mut ix, 11).is_empty(), "{name}: settled");
            touch(&mut ix);
            assert!(
                sweep_settling(&mut ix, 12).contains(&"A"),
                "{name} must make the tier due"
            );
        }
        // Read access and lookups that miss leave the promise standing.
        let mut ix = index_of(&[(1, "A", 40)]);
        sweep_settling(&mut ix, 10);
        assert!(ix.get(Time(1), &"A").is_some());
        assert!(ix.get_mut(Time(1), &"Z").is_none());
        assert_eq!(ix.iter_all().count(), 1);
        assert!(sweep_settling(&mut ix, 11).is_empty());
    }

    #[test]
    fn not_emitted_is_distinct_from_every_end_time_but_minus_infinity() {
        let mut n = Node::new();
        assert_eq!(n.output_ve(), None);
        assert_eq!(n.min_ve(), Time::INFINITY);
        n.set_output_ve(Some(Time::INFINITY));
        assert_eq!(n.output_ve(), Some(Time::INFINITY));
        n.set_input(StreamId(0), Time(9));
        assert_eq!(n.min_ve(), Time(9));
        n.set_output_ve(Some(Time(-5)));
        assert_eq!(n.min_ve(), Time(-5));
        n.set_output_ve(None);
        assert_eq!(n.output_ve(), None);
        assert_eq!(std::mem::size_of::<Node>(), 32);
    }

    #[test]
    fn memory_shares_payloads_across_inputs() {
        use lmerge_temporal::Value;
        let mut ix: In2t<Value> = In2t::new();
        let p = Value::synthetic(1, 1000);
        let n = ix.add_node(Time(1), p.clone());
        for s in 0..10 {
            n.set_input(StreamId(s), Time(5));
        }
        for _ in 0..10 {
            ix.note_entry_added();
        }
        // Ten inputs, but only one kilobyte of payload is charged.
        let mem = ix.memory_bytes();
        assert!(mem > 1000 && mem < 3000, "got {mem}");
    }
}
