//! The index of the indexed variants: the `Vs → (Payload → node)` tier map
//! R3+ ([`crate::in2t::Node`]), R4 ([`crate::in3t::Node`]) and R3− (a bare
//! `Ve`) keep their live entries in, and the one place that knows which
//! tiers a `stable(t)` sweep must visit.
//!
//! The map counts its live nodes and their payloads' heap bytes on every
//! path that links or unlinks one ([`Tiers::add_node`], [`Tiers::remove`],
//! retirement in [`Tiers::sweep_half_frozen`]) and hands out no raw tier, so
//! the counts cannot drift from the contents. Each variant prices them with
//! its own memory model.
//!
//! A tier keeps its smallest `(payload, node)` inline and the others in a
//! `BTreeMap` that stays empty — unallocated — until a second payload
//! shares the `Vs`. With the paper's generator almost every event has a
//! `Vs` of its own, so almost every tier costs one slot of the `Vs` map
//! and no allocation of its own.
//!
//! Every tier carries a **due bound**: a lower bound on the smallest stable
//! time at which the sweep visitor could emit, mutate or retire anything in
//! it. `sweep_half_frozen(t, …)` skips a tier whose bound is `≥ t` and
//! re-derives the bound of every tier it does visit from what the visitor
//! reports per kept node ([`SweepAction::KeepUntil`]). The bound is private
//! to this module and every path that hands out mutable access to a tier's
//! nodes resets it to −∞ first, so a stale promise cannot survive a change:
//! skipping is an optimisation of *which tiers are visited*, never of what a
//! visit does.
//!
//! A sweep finds its due tiers without stepping over the settled ones when
//! they are few. Below `swept_to`, the highest stable time swept so far,
//! every tier with an unknown bound is on a list and every tier with a
//! finite bound is in a min-heap by bound; above it no sweep has been, so
//! every tier there is due. A sweep at `t > swept_to` takes the listed
//! tiers and the heap entries with bound `< t`, looks each up in `Vs` order
//! and then walks `[swept_to, t)` — unless they are more than
//! `1 / SEEK_SHARE` of the live tiers, or `t ≤ swept_to`, when it walks
//! `(−∞, t)` as if there were no queue. Both paths visit through one
//! function. The queue records history, not contents: an entry is checked
//! against the tier's current bound when it is read, so a removal or a
//! reset edits no entry, and either queue is compacted once it exceeds
//! `2 × tier_count() + 64`.
//!
//! Every tier also carries a **changed** bit: set on the same paths that
//! reset the due bound, on every tier a sweep visits and on a removal the
//! tier survives, and cleared by [`Tiers::clear_changed`]. A checkpoint cut
//! exports the entries of the changed tiers and the keys of all live ones
//! ([`Tiers::export`]), so an unchanged tier costs a key, not its entries.
//!
//! Every tier is an *ordered* map rather than a hash map because the
//! durability layer requires *restorable iteration*: a sweep over an index
//! rebuilt from a checkpoint must emit in exactly the order the original
//! would have, and a hash table's slot layout is a function of its full
//! insertion/deletion history, which a rebuild cannot reproduce. Keying by
//! payload `Ord` makes iteration a pure function of the index's contents.

use lmerge_temporal::{Payload, Time};
use std::cmp::{Ordering, Reverse};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BinaryHeap};
use std::iter;

/// Verdict returned by a sweep visitor for each visited node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepAction {
    /// The node stays live and makes no promise: revisit it at the next
    /// sweep that reaches its `Vs`.
    Keep,
    /// The node stays live, and until it is next touched no sweep at a
    /// stable time `≤` the given one would emit, change or retire it.
    KeepUntil(Time),
    /// The node is fully settled; remove it during the walk.
    Retire,
}

/// Modelled bytes of one tier in the `Vs` map: a B-tree slot amortized per
/// key (key, the inner map's header, node headers/edges) plus the due bound.
pub(crate) const TIER_OVERHEAD: usize = 48 + std::mem::size_of::<Time>();

/// A sweep seeks its due tiers when they number at most `1 / SEEK_SHARE` of
/// the live tiers, and walks otherwise: stepping over a settled tier costs
/// ≈ 4 ns at 10 K tiers, seeking one ≈ 60–100 ns.
const SEEK_SHARE: usize = 16;

/// One `Vs` tier: its nodes by payload, the tier's due bound and whether
/// it changed since the last cut.
#[derive(Debug)]
struct Tier<P, N> {
    /// The smallest payload and its node.
    head: (P, N),
    /// The other nodes, every payload above `head`'s. Empty, and so
    /// unallocated, while the tier holds one node.
    rest: BTreeMap<P, N>,
    /// No sweep at `t ≤ due` has anything to do here. −∞ = "unknown".
    due: Time,
    changed: bool,
}

impl<P: Payload, N> Tier<P, N> {
    fn new(payload: P, node: N) -> Self {
        Tier {
            head: (payload, node),
            rest: BTreeMap::new(),
            due: Time::MIN,
            changed: true,
        }
    }

    fn get(&self, payload: &P) -> Option<&N> {
        match payload.cmp(&self.head.0) {
            Ordering::Equal => Some(&self.head.1),
            Ordering::Greater => self.rest.get(payload),
            Ordering::Less => None,
        }
    }

    /// The nodes in payload order.
    fn iter(&self) -> impl Iterator<Item = (&P, &N)> + '_ {
        iter::once((&self.head.0, &self.head.1)).chain(&self.rest)
    }

    fn nodes_mut(&mut self) -> impl Iterator<Item = &mut N> + '_ {
        iter::once(&mut self.head.1).chain(self.rest.values_mut())
    }

    /// Someone may change the tier's nodes: its bound is unknown and its
    /// entries go into the next cut.
    fn touch(&mut self) {
        self.due = Time::MIN;
        self.changed = true;
    }
}

/// Live `(Vs, payload)` nodes and their payloads' heap bytes.
#[derive(Debug, Default)]
struct Counts {
    nodes: usize,
    payload_bytes: usize,
}

impl Counts {
    fn link<P: Payload>(&mut self, payload: &P) {
        self.nodes += 1;
        self.payload_bytes += payload.heap_bytes();
    }

    fn unlink<P: Payload>(&mut self, payload: &P) {
        self.nodes -= 1;
        self.payload_bytes -= payload.heap_bytes();
    }
}

/// Which sweep path visits the due tiers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Path {
    /// Look up the queued tiers, then walk `[swept_to, t)`.
    Seek,
    /// Walk `(−∞, t)`.
    Walk,
}

/// What the sweeps know: how far they reached and which tiers below that
/// the next one may owe a visit. Stale entries are allowed; every entry is
/// checked against the tier when it is read.
#[derive(Debug)]
struct DueQueue {
    /// The highest stable time swept so far. No sweep has been at or above
    /// it, so every tier there has an unknown bound.
    swept_to: Time,
    /// Every tier below `swept_to` whose bound is −∞.
    unbounded: Vec<Time>,
    /// `(bound, Vs)` of every tier below `swept_to` a sweep settled with a
    /// finite bound, smallest bound first.
    bounded: BinaryHeap<Reverse<(Time, Time)>>,
    /// The keys the running sweep took from the queues and the keys of the
    /// tiers its walk emptied (unlinked after the walk). Kept between
    /// sweeps so that a punctuation allocates nothing.
    candidates: Vec<Time>,
    emptied: Vec<Time>,
}

impl DueQueue {
    fn new() -> Self {
        DueQueue {
            swept_to: Time::MIN,
            unbounded: Vec::new(),
            bounded: BinaryHeap::new(),
            candidates: Vec::new(),
            emptied: Vec::new(),
        }
    }

    /// A tier at `vs` now has an unknown bound.
    fn list(&mut self, vs: Time) {
        if vs < self.swept_to {
            self.unbounded.push(vs);
        }
    }

    /// Reset the bound `due` of the tier at `vs`.
    fn reset(&mut self, vs: Time, due: &mut Time) {
        if *due != Time::MIN {
            self.list(vs);
            *due = Time::MIN;
        }
    }

    /// Every tier below `swept_to` is about to have an unknown bound.
    fn list_all<P, N>(&mut self, map: &BTreeMap<Time, Tier<P, N>>) {
        self.unbounded.clear();
        self.unbounded
            .extend(map.range(..self.swept_to).map(|(&vs, _)| vs));
    }

    /// Compact each queue that `room` more entries would take past
    /// `2 × tiers + 64`, down to one valid entry per tier. Inline: it runs
    /// on every lookup that may reset a bound, and almost never compacts.
    #[inline]
    fn compact<P, N>(&mut self, map: &BTreeMap<Time, Tier<P, N>>, room: usize) {
        let bound = 2 * map.len() + 64;
        if self.unbounded.len() + room > bound {
            self.compact_unbounded(map);
        }
        if self.bounded.len() + room > bound {
            self.compact_bounded(map);
        }
    }

    #[cold]
    fn compact_unbounded<P, N>(&mut self, map: &BTreeMap<Time, Tier<P, N>>) {
        self.unbounded
            .retain(|vs| map.get(vs).is_some_and(|t| t.due == Time::MIN));
        self.unbounded.sort_unstable();
        self.unbounded.dedup();
    }

    #[cold]
    fn compact_bounded<P, N>(&mut self, map: &BTreeMap<Time, Tier<P, N>>) {
        let mut entries = std::mem::take(&mut self.bounded).into_vec();
        entries.retain(|Reverse((due, vs))| map.get(vs).is_some_and(|t| t.due == *due));
        entries.sort_unstable();
        entries.dedup();
        self.bounded = entries.into();
    }

    /// Move every queued tier a sweep at `t > swept_to` may owe a visit
    /// into `candidates`: all of the list, and the heap entries whose bound
    /// is `< t`.
    fn take(&mut self, t: Time) {
        self.candidates.append(&mut self.unbounded);
        while let Some(&Reverse((due, vs))) = self.bounded.peek() {
            if due >= t {
                break;
            }
            self.bounded.pop();
            self.candidates.push(vs);
        }
    }

    /// The one visit of both sweep paths: skip the tier if its bound is
    /// `≥ t`, else visit its nodes in payload order, retire what the
    /// visitor retires, re-derive the bound and queue the tier by it —
    /// unless the sweep `taken` nothing from the queues (it is at or below
    /// `swept_to`) and the tier's entry still holds. Returns whether the
    /// tier is empty now; the caller unlinks it.
    fn visit<P: Payload, N, V>(
        &mut self,
        counts: &mut Counts,
        t: Time,
        taken: bool,
        vs: Time,
        tier: &mut Tier<P, N>,
        visit: &mut V,
    ) -> bool
    where
        V: FnMut(Time, &P, &mut N) -> SweepAction,
    {
        if tier.due >= t {
            return false;
        }
        tier.changed = true;
        let mut due = Time::INFINITY;
        let mut keep = |payload: &P, node: &mut N| match visit(vs, payload, node) {
            SweepAction::Keep => {
                due = Time::MIN;
                true
            }
            SweepAction::KeepUntil(until) => {
                due = due.min(until);
                true
            }
            SweepAction::Retire => {
                counts.unlink(payload);
                false
            }
        };
        let head_kept = keep(&tier.head.0, &mut tier.head.1);
        tier.rest.retain(|payload, node| keep(payload, node));
        if !head_kept {
            match tier.rest.pop_first() {
                Some(next) => tier.head = next,
                None => return true,
            }
        }
        let held = !taken && due == tier.due;
        tier.due = due;
        if held {
            return false;
        }
        if due == Time::MIN {
            self.unbounded.push(vs);
        } else if due < Time::INFINITY {
            self.bounded.push(Reverse((due, vs)));
        }
        false
    }
}

/// The ordered tier map. Iteration order is `(Vs, payload)` — a pure
/// function of the contents, which the durability layer's byte-identical
/// recovery depends on.
#[derive(Debug)]
pub struct Tiers<P, N> {
    map: BTreeMap<Time, Tier<P, N>>,
    counts: Counts,
    due: DueQueue,
}

impl<P: Payload, N> Default for Tiers<P, N> {
    fn default() -> Self {
        Tiers::new()
    }
}

impl<P: Payload, N> Tiers<P, N> {
    /// An empty map.
    pub fn new() -> Self {
        Tiers {
            map: BTreeMap::new(),
            counts: Counts::default(),
            due: DueQueue::new(),
        }
    }

    /// Number of live `(Vs, Payload)` nodes (the paper's `w`).
    pub fn len(&self) -> usize {
        self.counts.nodes
    }

    /// Whether the map holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.counts.nodes == 0
    }

    /// Number of distinct live `Vs` values.
    pub fn tier_count(&self) -> usize {
        self.map.len()
    }

    /// Heap bytes of the live nodes' payloads.
    pub fn payload_bytes(&self) -> usize {
        self.counts.payload_bytes
    }

    /// The node for `(vs, payload)` (the paper's `SameVsPayload`).
    pub fn get(&self, vs: Time, payload: &P) -> Option<&N> {
        self.map.get(&vs).and_then(|t| t.get(payload))
    }

    /// Mutable lookup. A hit marks the tier due: the caller may change the
    /// node's end times.
    pub fn get_mut(&mut self, vs: Time, payload: &P) -> Option<&mut N> {
        self.due.compact(&self.map, 1);
        let tier = self.map.get_mut(&vs)?;
        let node = match payload.cmp(&tier.head.0) {
            Ordering::Equal => &mut tier.head.1,
            Ordering::Greater => tier.rest.get_mut(payload)?,
            Ordering::Less => return None,
        };
        self.due.reset(vs, &mut tier.due);
        tier.changed = true;
        Some(node)
    }

    /// The node for `(vs, payload)`, linked and counted as `N::default()`
    /// if absent. Its tier becomes due.
    pub fn add_node(&mut self, vs: Time, payload: P) -> &mut N
    where
        N: Default,
    {
        self.due.compact(&self.map, 1);
        let tier = match self.map.entry(vs) {
            Entry::Vacant(slot) => {
                self.counts.link(&payload);
                self.due.list(vs);
                return &mut slot.insert(Tier::new(payload, N::default())).head.1;
            }
            Entry::Occupied(tier) => tier.into_mut(),
        };
        self.due.reset(vs, &mut tier.due);
        tier.changed = true;
        match payload.cmp(&tier.head.0) {
            Ordering::Equal => &mut tier.head.1,
            Ordering::Less => {
                self.counts.link(&payload);
                let (old, node) = std::mem::replace(&mut tier.head, (payload, N::default()));
                tier.rest.insert(old, node);
                &mut tier.head.1
            }
            Ordering::Greater => match tier.rest.entry(payload) {
                Entry::Occupied(node) => node.into_mut(),
                Entry::Vacant(slot) => {
                    self.counts.link(slot.key());
                    slot.insert(N::default())
                }
            },
        }
    }

    /// Unlink the node for `(vs, payload)`, and its tier if that empties it.
    /// (Removal can only raise a tier's true bound, so `due` stays valid.)
    pub fn remove(&mut self, vs: Time, payload: &P) -> Option<N> {
        let tier = self.map.get_mut(&vs)?;
        let node = match payload.cmp(&tier.head.0) {
            Ordering::Less => return None,
            Ordering::Greater => tier.rest.remove(payload)?,
            Ordering::Equal => match tier.rest.pop_first() {
                Some(next) => std::mem::replace(&mut tier.head, next).1,
                None => {
                    let tier = self.map.remove(&vs)?;
                    self.counts.unlink(payload);
                    self.due.compact(&self.map, 0);
                    return Some(tier.head.1);
                }
            },
        };
        tier.changed = true;
        self.counts.unlink(payload);
        Some(node)
    }

    /// The smallest live `Vs`, if any — an O(log n) lower bound that lets
    /// callers discard whole stale batches without probing each element.
    pub fn min_vs(&self) -> Option<Time> {
        self.map.keys().next().copied()
    }

    /// Every node in canonical `(Vs, payload)` order, including nodes at
    /// `Vs = ∞`.
    pub fn iter(&self) -> impl Iterator<Item = (Time, &P, &N)> + '_ {
        self.map
            .iter()
            .flat_map(|(vs, t)| t.iter().map(move |(p, n)| (*vs, p, n)))
    }

    /// Every node with `Vs < t`, in canonical order.
    pub fn iter_below(&self, t: Time) -> impl Iterator<Item = (Time, &P, &N)> + '_ {
        self.map
            .range(..t)
            .flat_map(|(vs, t)| t.iter().map(move |(p, n)| (*vs, p, n)))
    }

    /// Every node, mutably; every tier is marked due.
    pub fn nodes_mut(&mut self) -> impl Iterator<Item = &mut N> + '_ {
        self.due.list_all(&self.map);
        self.map.values_mut().flat_map(|t| {
            t.touch();
            t.nodes_mut()
        })
    }

    /// Mark every tier due without touching a node: something outside the
    /// map changed what a sweep would do (an input attached: it lacks every
    /// node, so its first `stable` retires them).
    pub fn mark_all_due(&mut self) {
        self.due.list_all(&self.map);
        for t in self.map.values_mut() {
            t.touch();
        }
    }

    /// One index's share of a cut: push every live tier's `Vs` onto `keys`
    /// and, for the changed tiers (all tiers unless `changed_only`), each
    /// node's `entry` onto `entries` — both in canonical order.
    pub(crate) fn export<E>(
        &self,
        changed_only: bool,
        keys: &mut Vec<Time>,
        entries: &mut Vec<E>,
        mut entry: impl FnMut(Time, &P, &N) -> E,
    ) {
        keys.reserve(self.map.len());
        for (&vs, tier) in &self.map {
            keys.push(vs);
            if tier.changed || !changed_only {
                entries.extend(tier.iter().map(|(p, n)| entry(vs, p, n)));
            }
        }
    }

    /// Forget what changed: the cut that read it has been taken.
    pub(crate) fn clear_changed(&mut self) {
        for t in self.map.values_mut() {
            t.changed = false;
        }
    }

    /// The paper's `FindHalfFrozen` walk for `stable(t)`: visit the nodes
    /// with `Vs < t` in `(Vs, payload)` order with mutable access, at most
    /// once each, skipping the tiers whose due bound is `≥ t`. Retired
    /// nodes are unlinked and uncounted during the walk (the visitor does
    /// its own bookkeeping before it answers [`SweepAction::Retire`]); tiers
    /// that empty are unlinked where the seek finds them or after the
    /// walk, at a cost that follows their number rather than the size of
    /// the map. A visitor that only ever answers [`SweepAction::Keep`] sees
    /// every node every time.
    pub fn sweep_half_frozen<V>(&mut self, t: Time, visit: V)
    where
        V: FnMut(Time, &P, &mut N) -> SweepAction,
    {
        let seek_below = self.map.len() / SEEK_SHARE + 1;
        self.sweep(t, seek_below, visit);
    }

    /// [`Tiers::sweep_half_frozen`], seeking when fewer than `seek_below`
    /// tiers are queued; returns the path taken.
    fn sweep<V>(&mut self, t: Time, seek_below: usize, mut visit: V) -> Path
    where
        V: FnMut(Time, &P, &mut N) -> SweepAction,
    {
        let Tiers { map, counts, due } = self;
        let taken = t > due.swept_to;
        if taken {
            due.take(t);
        }
        let (path, from) = if taken && due.candidates.len() < seek_below {
            (Path::Seek, due.swept_to)
        } else {
            (Path::Walk, Time::MIN)
        };
        let mut candidates = std::mem::take(&mut due.candidates);
        if path == Path::Seek {
            candidates.sort_unstable();
            candidates.dedup();
            for &vs in &candidates {
                // One search per candidate, retired or kept.
                if let Entry::Occupied(mut tier) = map.entry(vs) {
                    if due.visit(counts, t, taken, vs, tier.get_mut(), &mut visit) {
                        tier.remove();
                    }
                }
            }
        }
        candidates.clear();
        due.candidates = candidates;
        if from < t {
            for (&vs, tier) in map.range_mut(from..t) {
                if due.visit(counts, t, taken, vs, tier, &mut visit) {
                    due.emptied.push(vs);
                }
            }
        }
        for vs in due.emptied.drain(..) {
            map.remove(&vs);
        }
        due.swept_to = due.swept_to.max(t);
        due.compact(map, 0);
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmerge_temporal::{HeapSize, Value};
    use rand::prelude::*;

    fn tiers(keys: &[(i64, &'static str)]) -> Tiers<&'static str, i64> {
        let mut t = Tiers::new();
        for &(vs, p) in keys {
            t.add_node(Time(vs), p);
        }
        t
    }

    /// Sweep at `t`, settling every visited node until `until`; returns the
    /// visited keys.
    fn settle(t: &mut Tiers<&'static str, i64>, at: i64, until: i64) -> Vec<(Time, &'static str)> {
        let mut seen = Vec::new();
        t.sweep_half_frozen(Time(at), |vs, p, _| {
            seen.push((vs, *p));
            SweepAction::KeepUntil(Time(until))
        });
        seen
    }

    #[test]
    fn a_settled_tier_is_skipped_until_its_bound_and_visited_past_it() {
        let mut t = tiers(&[(1, "A"), (2, "B")]);
        assert_eq!(settle(&mut t, 10, 20).len(), 2, "fresh tiers are due");
        assert!(settle(&mut t, 15, 20).is_empty(), "15 ≤ bound 20");
        assert!(settle(&mut t, 20, 20).is_empty(), "bound itself is settled");
        assert_eq!(settle(&mut t, 21, 30).len(), 2, "21 > bound 20: due");
    }

    #[test]
    fn the_tier_bound_is_the_minimum_over_its_nodes_and_keep_means_due() {
        let mut t = tiers(&[(1, "A"), (1, "B"), (2, "C")]);
        t.sweep_half_frozen(Time(10), |_, p, _| match *p {
            "A" => SweepAction::KeepUntil(Time(50)),
            "B" => SweepAction::KeepUntil(Time(12)),
            _ => SweepAction::Keep,
        });
        // Tier 1 is due at 13 (> 12) although A alone would hold until 50;
        // tier 2 made no promise and is due at once.
        assert_eq!(
            settle(&mut t, 11, 100),
            vec![(Time(2), "C")],
            "tier 1 settled through 12, tier 2 unpromised"
        );
        let mut t = tiers(&[(1, "A"), (1, "B")]);
        t.sweep_half_frozen(Time(10), |_, p, _| match *p {
            "A" => SweepAction::KeepUntil(Time(50)),
            _ => SweepAction::KeepUntil(Time(12)),
        });
        assert!(settle(&mut t, 12, 100).is_empty());
        assert_eq!(settle(&mut t, 13, 100).len(), 2, "whole tier walked");
    }

    #[test]
    fn every_mutable_access_resets_the_bound() {
        type Touch = fn(&mut Tiers<&'static str, i64>);
        let touches: [(&str, Touch); 5] = [
            ("get_mut", |t| {
                t.get_mut(Time(1), &"A").unwrap();
            }),
            ("add_node of a live node", |t| {
                t.add_node(Time(1), "A");
            }),
            ("add_node of a new node", |t| {
                t.add_node(Time(1), "A2");
            }),
            ("nodes_mut", |t| t.nodes_mut().for_each(|n| *n += 1)),
            ("mark_all_due", |t| t.mark_all_due()),
        ];
        for (name, touch) in touches {
            let mut t = tiers(&[(1, "A")]);
            settle(&mut t, 10, 100);
            assert!(settle(&mut t, 11, 100).is_empty(), "{name}: settled");
            touch(&mut t);
            assert!(
                settle(&mut t, 12, 100).contains(&(Time(1), "A")),
                "{name} must reset"
            );
        }
        // Reads and misses change nothing and reset nothing.
        let mut t = tiers(&[(1, "A")]);
        settle(&mut t, 10, 100);
        assert!(t.get(Time(1), &"A").is_some());
        assert!(t.get_mut(Time(1), &"Z").is_none());
        assert!(t.get_mut(Time(7), &"A").is_none());
        assert_eq!(t.iter().count(), 1);
        assert!(settle(&mut t, 11, 100).is_empty());
    }

    /// `(keys, changed entries)` of a cut.
    fn cut(t: &Tiers<&'static str, i64>) -> (Vec<i64>, Vec<(i64, &'static str)>) {
        let (mut keys, mut entries) = (Vec::new(), Vec::new());
        t.export(true, &mut keys, &mut entries, |vs, p, _| (vs.0, *p));
        (keys.into_iter().map(|k| k.0).collect(), entries)
    }

    #[test]
    fn a_cut_holds_every_key_and_the_changed_tiers_entries() {
        type Touch = fn(&mut Tiers<&'static str, i64>);
        let touches: [(&str, Touch, &[i64]); 7] = [
            ("get_mut", |t| *t.get_mut(Time(2), &"B").unwrap() += 1, &[2]),
            (
                "add_node",
                |t| {
                    t.add_node(Time(2), "Z");
                },
                &[2],
            ),
            (
                "nodes_mut",
                |t| t.nodes_mut().for_each(|n| *n += 1),
                &[1, 2, 3],
            ),
            ("mark_all_due", |t| t.mark_all_due(), &[1, 2, 3]),
            (
                "remove",
                |t| {
                    t.remove(Time(2), &"B");
                },
                &[2],
            ),
            (
                "a miss",
                |t| assert!(t.get_mut(Time(2), &"Q").is_none()),
                &[],
            ),
            (
                "sweep",
                |t| {
                    settle(t, 3, 100);
                },
                &[1, 2],
            ),
        ];
        for (name, touch, changed) in touches {
            let mut t = tiers(&[(1, "A"), (2, "B"), (2, "C"), (3, "D")]);
            assert_eq!(cut(&t).1.len(), 4, "{name}: fresh tiers changed");
            t.clear_changed();
            assert_eq!(cut(&t), (vec![1, 2, 3], vec![]), "{name}: cleared");
            touch(&mut t);
            let (keys, entries) = cut(&t);
            assert_eq!(keys, vec![1, 2, 3], "{name}: every live key");
            let mut tiers: Vec<i64> = entries.iter().map(|e| e.0).collect();
            tiers.dedup();
            assert_eq!(tiers, changed, "{name}");
            let all = t
                .iter()
                .filter(|(vs, _, _)| changed.contains(&vs.0))
                .count();
            assert_eq!(entries.len(), all, "{name}: a changed tier whole");
        }
        // A sweep skips a settled tier, and leaves it unchanged.
        let mut t = tiers(&[(1, "A")]);
        settle(&mut t, 10, 100);
        t.clear_changed();
        assert!(settle(&mut t, 11, 100).is_empty());
        assert!(cut(&t).1.is_empty());
    }

    #[test]
    fn a_sweep_visits_in_vs_order_retires_in_place_and_unlinks_emptied_tiers() {
        let mut t = tiers(&[(1, "A"), (2, "B"), (2, "C"), (3, "D"), (9, "E")]);
        let mut seen = Vec::new();
        t.sweep_half_frozen(Time(5), |vs, p, n| {
            seen.push((vs.0, *p));
            if matches!(*p, "A" | "B" | "D") {
                SweepAction::Retire
            } else {
                *n += 7;
                SweepAction::Keep
            }
        });
        assert_eq!(seen, vec![(1, "A"), (2, "B"), (2, "C"), (3, "D")]);
        assert_eq!(t.len(), 2, "A, B and D retired");
        assert_eq!(t.tier_count(), 2, "tiers 1 and 3 unlinked, 2 and 9 stay");
        assert_eq!(t.min_vs(), Some(Time(2)));
        let left: Vec<_> = t.iter().map(|(vs, p, n)| (vs.0, *p, *n)).collect();
        assert_eq!(left, vec![(2, "C", 7), (9, "E", 0)], "kept nodes mutated");
    }

    #[test]
    fn remove_unlinks_an_emptied_tier() {
        let mut t = tiers(&[(7, "A"), (3, "B")]);
        assert_eq!(t.min_vs(), Some(Time(3)));
        assert_eq!(t.remove(Time(3), &"B"), Some(0));
        assert_eq!(t.remove(Time(3), &"B"), None);
        assert_eq!(t.min_vs(), Some(Time(7)));
        assert_eq!((t.len(), t.tier_count()), (1, 1));
        t.remove(Time(7), &"A");
        assert!(t.is_empty());
        assert_eq!(t.min_vs(), None);
    }

    #[test]
    fn the_counts_follow_every_link_and_unlink() {
        let p = |i: i32| Value::synthetic(i, 100 * (i as usize + 1));
        let mut t: Tiers<Value, u8> = Tiers::new();
        for i in 0..4 {
            t.add_node(Time(i as i64 % 2), p(i));
        }
        // A second `add_node` of a live node links nothing.
        t.add_node(Time(0), p(0));
        let heap = |is: &[i32]| is.iter().map(|&i| p(i).heap_bytes()).sum::<usize>();
        assert_eq!((t.len(), t.payload_bytes()), (4, heap(&[0, 1, 2, 3])));
        assert!(t.remove(Time(1), &p(1)).is_some());
        assert!(
            t.remove(Time(1), &p(1)).is_none(),
            "a miss uncounts nothing"
        );
        assert_eq!((t.len(), t.payload_bytes()), (3, heap(&[0, 2, 3])));
        t.sweep_half_frozen(Time(1), |_, v, _| {
            if *v == p(0) {
                SweepAction::Retire
            } else {
                SweepAction::Keep
            }
        });
        assert_eq!((t.len(), t.payload_bytes()), (2, heap(&[2, 3])));
        assert!(heap(&[2, 3]) > 0);
        // The counts are a function of the contents alone.
        let mut same: Tiers<Value, u8> = Tiers::new();
        for (vs, v, _) in t.iter() {
            same.add_node(vs, v.clone());
        }
        assert_eq!(
            (same.len(), same.tier_count(), same.payload_bytes()),
            (t.len(), t.tier_count(), t.payload_bytes())
        );
    }

    #[test]
    fn a_tier_keeps_its_smallest_payload_inline() {
        let mut t = tiers(&[(1, "M"), (2, "Q")]);
        assert!(
            t.map.values().all(|tier| tier.rest.is_empty()),
            "one payload per tier: no inner map is filled"
        );
        t.add_node(Time(1), "Z");
        *t.add_node(Time(1), "A") = 4;
        let tier = &t.map[&Time(1)];
        assert_eq!(tier.head, ("A", 4), "a smaller payload takes the head");
        assert_eq!(tier.rest.keys().copied().collect::<Vec<_>>(), ["M", "Z"]);
        let order: Vec<_> = t.iter().map(|(vs, p, _)| (vs.0, *p)).collect();
        assert_eq!(order, [(1, "A"), (1, "M"), (1, "Z"), (2, "Q")]);
        assert_eq!(t.get(Time(1), &"A"), Some(&4));
        assert_eq!(t.get(Time(1), &"M"), Some(&0));
        assert_eq!(t.get(Time(1), &"0"), None, "below the head");
        assert_eq!(t.get(Time(1), &"B"), None, "between head and rest");
        assert_eq!((t.len(), t.tier_count()), (4, 2));
        assert_eq!(t.remove(Time(1), &"A"), Some(4));
        let tier = &t.map[&Time(1)];
        assert_eq!(tier.head.0, "M", "removing the head promotes the next");
        assert_eq!(tier.rest.keys().copied().collect::<Vec<_>>(), ["Z"]);
        assert_eq!(t.remove(Time(1), &"A"), None);
        assert_eq!(t.remove(Time(1), &"M"), Some(0));
        assert_eq!(t.remove(Time(1), &"Z"), Some(0));
        assert_eq!((t.len(), t.tier_count()), (1, 1), "tier 1 unlinked");
    }

    #[test]
    fn a_sweep_that_retires_the_head_keeps_the_rest_in_order() {
        let mut t = tiers(&[(1, "C"), (1, "A"), (1, "B"), (1, "D")]);
        let mut seen = Vec::new();
        t.sweep_half_frozen(Time(5), |_, p, n| {
            seen.push(*p);
            if matches!(*p, "A" | "C") {
                SweepAction::Retire
            } else {
                *n += 1;
                SweepAction::Keep
            }
        });
        assert_eq!(seen, ["A", "B", "C", "D"], "payload order, head first");
        let tier = &t.map[&Time(1)];
        assert_eq!(tier.head, ("B", 1));
        assert_eq!(tier.rest.iter().collect::<Vec<_>>(), [(&"D", &1)]);
        assert_eq!(t.len(), 2);
        t.sweep_half_frozen(Time(6), |_, _, _| SweepAction::Retire);
        assert!(t.is_empty() && t.tier_count() == 0, "emptied tier unlinked");
    }

    /// Sweep at `at` through the seek path whenever the queues allow it
    /// (`seek_below = SEEK`) or always walking (`WALK`), answering
    /// `act(payload, visits of the node so far)`; returns the visited keys
    /// and the path.
    fn sweep_by(
        t: &mut Tiers<&'static str, i64>,
        at: i64,
        seek_below: usize,
        act: impl Fn(&str, i64) -> SweepAction,
    ) -> (Vec<(i64, &'static str)>, Path) {
        let mut seen = Vec::new();
        let path = t.sweep(Time(at), seek_below, |vs, p, n| {
            seen.push((vs.0, *p));
            *n += 1;
            act(p, *n)
        });
        (seen, path)
    }

    const SEEK: usize = usize::MAX;
    const WALK: usize = 0;

    /// The first visit settles a node until `first`, later ones for good.
    fn first_until(first: i64, visits: i64) -> SweepAction {
        SweepAction::KeepUntil(Time(if visits == 1 { first } else { 1_000 }))
    }

    #[test]
    fn a_settled_tier_that_get_mut_resets_is_visited_by_the_next_sweep() {
        for limit in [SEEK, WALK] {
            let mut t = tiers(&[(1, "A"), (2, "B"), (3, "C")]);
            let until = |_: &str, _| SweepAction::KeepUntil(Time(100));
            assert_eq!(sweep_by(&mut t, 10, limit, until).0.len(), 3);
            assert!(sweep_by(&mut t, 11, limit, until).0.is_empty());
            assert!(t.get_mut(Time(2), &"B").is_some());
            let (seen, path) = sweep_by(&mut t, 12, limit, until);
            assert_eq!(seen, [(2, "B")], "limit {limit}");
            assert_eq!(path == Path::Seek, limit == SEEK);
            t.add_node(Time(1), "A");
            t.add_node(Time(5), "E");
            let (seen, _) = sweep_by(&mut t, 13, limit, until);
            assert_eq!(
                seen,
                [(1, "A"), (5, "E")],
                "a reset and a new tier below swept_to"
            );
        }
    }

    #[test]
    fn a_bound_that_passes_is_visited_first_at_the_first_stable_past_it() {
        for limit in [SEEK, WALK] {
            let mut t = tiers(&[(1, "A"), (2, "B"), (3, "C")]);
            let bounds = |p: &str, visits| match p {
                "A" => first_until(20, visits),
                "B" => first_until(30, visits),
                _ => first_until(25, visits),
            };
            assert_eq!(sweep_by(&mut t, 10, limit, bounds).0.len(), 3);
            let visits: Vec<_> = (11..=40)
                .map(|at| (at, sweep_by(&mut t, at, limit, bounds).0))
                .filter(|(_, seen)| !seen.is_empty())
                .collect();
            assert_eq!(
                visits,
                [
                    (21, vec![(1, "A")]),
                    (26, vec![(3, "C")]),
                    (31, vec![(2, "B")])
                ],
                "limit {limit}"
            );
        }
    }

    #[test]
    fn keep_tiers_are_revisited_at_every_sweep() {
        let act = |p: &str, _| match p {
            "A" => SweepAction::Keep,
            _ => SweepAction::KeepUntil(Time(1_000)),
        };
        let mut t = tiers(&[(1, "A"), (2, "B")]);
        sweep_by(&mut t, 10, SEEK, act);
        for at in 11..20 {
            assert_eq!(
                sweep_by(&mut t, at, SEEK, act),
                (vec![(1, "A")], Path::Seek)
            );
        }
    }

    #[test]
    fn a_sweep_at_or_below_swept_to_stays_correct() {
        let act = |p: &str, visits| match p {
            "A" | "C" => SweepAction::Keep,
            "B" => first_until(40, visits),
            _ => first_until(60, visits),
        };
        let mut t = tiers(&[(10, "A"), (20, "B"), (30, "C"), (40, "D")]);
        assert_eq!(sweep_by(&mut t, 50, SEEK, act).0.len(), 4);
        let sweeps = [
            (25, vec![(10, "A")], Path::Walk),
            (41, vec![(10, "A"), (20, "B"), (30, "C")], Path::Walk),
            (50, vec![(10, "A"), (30, "C")], Path::Walk),
            (61, vec![(10, "A"), (30, "C"), (40, "D")], Path::Seek),
            (62, vec![(10, "A"), (30, "C")], Path::Seek),
        ];
        for (at, seen, path) in sweeps {
            assert_eq!(sweep_by(&mut t, at, SEEK, act), (seen, path), "at {at}");
        }
    }

    /// One step of a churn script over `Tiers<i32, i64>`.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        Add(Time, i32),
        Touch(Time, i32),
        Remove(Time, i32),
        MarkAllDue,
        /// `nodes_mut`, consumed a third of the way.
        NodesMut,
        Sweep(Time),
    }

    /// `steps` random steps over about `live` tiers around a stable time
    /// that mostly advances and sometimes steps back.
    fn churn_script(seed: u64, steps: usize, live: i64) -> Vec<Op> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut stable = 0i64;
        (0..steps)
            .map(|_| {
                let vs = Time(stable - live / 2 + rng.random_range(0..live));
                let p = rng.random_range(0..4);
                match rng.random_range(0u32..200) {
                    0..=39 => Op::Add(vs, p),
                    40..=69 => Op::Touch(vs, p),
                    70..=75 => Op::Remove(vs, p),
                    76 => Op::MarkAllDue,
                    77 => Op::NodesMut,
                    _ => {
                        stable += if rng.random_bool(0.02) {
                            -rng.random_range(0..live / 20)
                        } else {
                            rng.random_range(0..4)
                        };
                        Op::Sweep(Time(stable))
                    }
                }
            })
            .collect()
    }

    /// Apply `op`; a sweep seeks below `seek_below` (`None`: the rule) and
    /// returns its visits and path. The visitor bumps a counter and answers
    /// from it, so a missed or extra visit changes every later answer.
    fn apply(
        x: &mut Tiers<i32, i64>,
        op: Op,
        seek_below: Option<usize>,
    ) -> (Vec<(i64, i32, i64)>, Option<Path>) {
        let mut seen = Vec::new();
        let mut path = None;
        match op {
            Op::Add(vs, p) => *x.add_node(vs, p) += 1,
            Op::Touch(vs, p) => {
                if let Some(n) = x.get_mut(vs, &p) {
                    *n += 1;
                }
            }
            Op::Remove(vs, p) => {
                x.remove(vs, &p);
            }
            Op::MarkAllDue => x.mark_all_due(),
            Op::NodesMut => {
                let third = x.len() / 3;
                x.nodes_mut().take(third).for_each(|n| *n += 1);
            }
            Op::Sweep(t) => {
                let visit = |vs: Time, p: &i32, n: &mut i64| {
                    *n += 1;
                    seen.push((vs.0, *p, *n));
                    match (vs.0 * 7 + i64::from(*p) * 13 + *n).rem_euclid(20) {
                        0 => SweepAction::Retire,
                        1 => SweepAction::Keep,
                        h => SweepAction::KeepUntil(Time(t.0 + 3 * h - 8)),
                    }
                };
                let limit = seek_below.unwrap_or(x.tier_count() / SEEK_SHARE + 1);
                path = Some(x.sweep(t, limit, visit));
            }
        }
        (seen, path)
    }

    #[test]
    fn the_seek_path_and_the_walk_path_visit_alike() {
        for seed in 0..8 {
            let script = churn_script(seed, 4_000, 200);
            let mut paths: [(Tiers<i32, i64>, Option<usize>); 3] = [
                (Tiers::new(), Some(SEEK)),
                (Tiers::new(), Some(WALK)),
                (Tiers::new(), None),
            ];
            let mut by_rule = Vec::new();
            for (step, &op) in script.iter().enumerate() {
                let seen: Vec<_> = paths.iter_mut().map(|(x, by)| apply(x, op, *by)).collect();
                assert_eq!(
                    seen[0].0, seen[1].0,
                    "seed {seed} step {step} {op:?}: seek vs walk"
                );
                assert_eq!(
                    seen[0].0, seen[2].0,
                    "seed {seed} step {step} {op:?}: seek vs rule"
                );
                by_rule.extend(seen[2].1);
            }
            for path in [Path::Seek, Path::Walk] {
                let n = by_rule.iter().filter(|&&p| p == path).count();
                assert!(n >= 20, "seed {seed}: the rule took {path:?} {n} times");
            }
            let left: Vec<Vec<_>> = paths
                .iter()
                .map(|(x, _)| x.iter().map(|(vs, p, n)| (vs, *p, *n)).collect())
                .collect();
            assert_eq!(left[0], left[1], "seed {seed}");
            assert_eq!(left[0], left[2], "seed {seed}");
        }
    }

    #[test]
    fn both_queues_stay_within_their_bound_through_churn() {
        let mut x = Tiers::new();
        let mut touches = 0;
        for op in churn_script(7, 30_000, 400) {
            touches += usize::from(!matches!(op, Op::Sweep(_)));
            apply(&mut x, op, None);
            let bound = 2 * x.tier_count() + 64;
            let (unbounded, bounded) = (x.due.unbounded.len(), x.due.bounded.len());
            assert!(
                unbounded <= bound && bounded <= bound,
                "{unbounded}, {bounded} > {bound}"
            );
        }
        assert!(touches >= 10_000, "{touches} touches");
    }

    #[test]
    fn a_steady_state_with_little_churn_seeks_and_an_all_due_one_walks() {
        // 2 000 live tiers, each event living 2 000 time units; a stable
        // every 20 units, with 20 new tiers and 20 old ones touched between
        // stables (1 % each).
        let (live, step) = (2_000i64, 20i64);
        let settle = |vs: Time, _: &i32, _: &mut i64| SweepAction::KeepUntil(Time(vs.0 + live));
        let mut x: Tiers<i32, i64> = Tiers::new();
        for vs in 0..live {
            x.add_node(Time(vs), 0);
        }
        let mut rng = StdRng::seed_from_u64(3);
        for k in 0..50 {
            let now = live + k * step;
            for vs in now..now + step {
                x.add_node(Time(vs), 0);
            }
            for _ in 0..step {
                x.get_mut(Time(now - rng.random_range(1..live)), &0);
            }
            let seek_below = x.tier_count() / SEEK_SHARE + 1;
            let path = x.sweep(Time(now), seek_below, |vs, p, n| {
                if vs.0 + live < now {
                    SweepAction::Retire
                } else {
                    settle(vs, p, n)
                }
            });
            assert_eq!(path, Path::Seek, "stable {k}");
        }
        // An input that holds nothing leaves every tier due: walk.
        for k in 0..5 {
            let seek_below = x.tier_count() / SEEK_SHARE + 1;
            let path = x.sweep(Time(live * 2 + k), seek_below, |_, _, _| SweepAction::Keep);
            assert_eq!(path, Path::Walk, "stable {k}");
        }
    }
}
