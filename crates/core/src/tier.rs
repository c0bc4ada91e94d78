//! The index of the indexed variants: the `Vs → (Payload → node)` tier map
//! R3+ ([`crate::in2t::Node`]), R4 ([`crate::in3t::Node`]) and R3− (a bare
//! `Ve`) keep their live entries in, and the one place that knows which
//! tiers a `stable(t)` sweep may skip.
//!
//! The map counts its live nodes and their payloads' heap bytes on every
//! path that links or unlinks one ([`Tiers::add_node`], [`Tiers::remove`],
//! retirement in [`Tiers::sweep_half_frozen`]) and hands out no raw tier, so
//! the counts cannot drift from the contents. Each variant prices them with
//! its own memory model.
//!
//! Every tier carries a **due bound**: a lower bound on the smallest stable
//! time at which the sweep visitor could emit, mutate or retire anything in
//! it. `sweep_half_frozen(t, …)` skips a tier whose bound is `≥ t` and
//! re-derives the bound of every tier it does walk from what the visitor
//! reports per kept node ([`SweepAction::KeepUntil`]). The bound is private
//! to this module and every path that hands out mutable access to a tier's
//! nodes resets it to −∞ first, so a stale promise cannot survive a change:
//! skipping is an optimisation of *which tiers are walked*, never of what a
//! walk does.
//!
//! Every tier also carries a **changed** bit: set on the same paths that
//! reset the due bound, on every tier a sweep walks and on a removal the
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
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

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

/// One `Vs` tier: its nodes by payload, the tier's due bound and whether
/// it changed since the last cut.
#[derive(Debug)]
struct Tier<P, N> {
    nodes: BTreeMap<P, N>,
    /// No sweep at `t ≤ due` has anything to do here. −∞ = "unknown".
    due: Time,
    changed: bool,
}

impl<P, N> Tier<P, N> {
    /// Someone may change the tier's nodes: its bound is unknown and its
    /// entries go into the next cut.
    fn touch(&mut self) {
        self.due = Time::MIN;
        self.changed = true;
    }
}

/// The ordered tier map. Iteration order is `(Vs, payload)` — a pure
/// function of the contents, which the durability layer's byte-identical
/// recovery depends on.
#[derive(Debug)]
pub struct Tiers<P, N> {
    map: BTreeMap<Time, Tier<P, N>>,
    /// Keys of the tiers the running sweep emptied. Kept between sweeps so
    /// that a punctuation allocates nothing.
    emptied: Vec<Time>,
    /// Live `(Vs, payload)` nodes.
    nodes: usize,
    /// Heap bytes of the live nodes' payloads (each stored once).
    payload_bytes: usize,
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
            emptied: Vec::new(),
            nodes: 0,
            payload_bytes: 0,
        }
    }

    /// Number of live `(Vs, Payload)` nodes (the paper's `w`).
    pub fn len(&self) -> usize {
        self.nodes
    }

    /// Whether the map holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes == 0
    }

    /// Number of distinct live `Vs` values.
    pub fn tier_count(&self) -> usize {
        self.map.len()
    }

    /// Heap bytes of the live nodes' payloads.
    pub fn payload_bytes(&self) -> usize {
        self.payload_bytes
    }

    /// The node for `(vs, payload)` (the paper's `SameVsPayload`).
    pub fn get(&self, vs: Time, payload: &P) -> Option<&N> {
        self.map.get(&vs).and_then(|t| t.nodes.get(payload))
    }

    /// Mutable lookup. A hit marks the tier due: the caller may change the
    /// node's end times.
    pub fn get_mut(&mut self, vs: Time, payload: &P) -> Option<&mut N> {
        let tier = self.map.get_mut(&vs)?;
        let node = tier.nodes.get_mut(payload)?;
        tier.due = Time::MIN;
        tier.changed = true;
        Some(node)
    }

    /// The node for `(vs, payload)`, linked and counted as `N::default()`
    /// if absent. Its tier becomes due.
    pub fn add_node(&mut self, vs: Time, payload: P) -> &mut N
    where
        N: Default,
    {
        let tier = self.map.entry(vs).or_insert_with(|| Tier {
            nodes: BTreeMap::new(),
            due: Time::MIN,
            changed: true,
        });
        tier.touch();
        match tier.nodes.entry(payload) {
            Entry::Occupied(node) => node.into_mut(),
            Entry::Vacant(slot) => {
                self.nodes += 1;
                self.payload_bytes += slot.key().heap_bytes();
                slot.insert(N::default())
            }
        }
    }

    /// Unlink the node for `(vs, payload)`, and its tier if that empties it.
    /// (Removal can only raise a tier's true bound, so `due` stays valid.)
    pub fn remove(&mut self, vs: Time, payload: &P) -> Option<N> {
        let tier = self.map.get_mut(&vs)?;
        let node = tier.nodes.remove(payload)?;
        tier.changed = true;
        self.nodes -= 1;
        self.payload_bytes -= payload.heap_bytes();
        if tier.nodes.is_empty() {
            self.map.remove(&vs);
        }
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
            .flat_map(|(vs, t)| t.nodes.iter().map(move |(p, n)| (*vs, p, n)))
    }

    /// Every node with `Vs < t`, in canonical order.
    pub fn iter_below(&self, t: Time) -> impl Iterator<Item = (Time, &P, &N)> + '_ {
        self.map
            .range(..t)
            .flat_map(|(vs, t)| t.nodes.iter().map(move |(p, n)| (*vs, p, n)))
    }

    /// Every node, mutably; every tier is marked due.
    pub fn nodes_mut(&mut self) -> impl Iterator<Item = &mut N> + '_ {
        self.map.values_mut().flat_map(|t| {
            t.touch();
            t.nodes.values_mut()
        })
    }

    /// Mark every tier due without touching a node: something outside the
    /// map changed what a sweep would do (an input attached: it lacks every
    /// node, so its first `stable` retires them).
    pub fn mark_all_due(&mut self) {
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
            if tier.nodes.is_empty() {
                continue;
            }
            keys.push(vs);
            if tier.changed || !changed_only {
                entries.extend(tier.nodes.iter().map(|(p, n)| entry(vs, p, n)));
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
    /// that empty are unlinked after it, at a cost that follows their
    /// number rather than the size of the map. A visitor that only ever
    /// answers [`SweepAction::Keep`] sees every node every time.
    pub fn sweep_half_frozen<V>(&mut self, t: Time, mut visit: V)
    where
        V: FnMut(Time, &P, &mut N) -> SweepAction,
    {
        let Tiers {
            map,
            emptied,
            nodes,
            payload_bytes,
        } = self;
        emptied.clear();
        for (vs, tier) in map.range_mut(..t) {
            if tier.due >= t {
                continue;
            }
            tier.changed = true;
            let mut due = Time::INFINITY;
            tier.nodes
                .retain(|payload, node| match visit(*vs, payload, node) {
                    SweepAction::Keep => {
                        due = Time::MIN;
                        true
                    }
                    SweepAction::KeepUntil(until) => {
                        due = due.min(until);
                        true
                    }
                    SweepAction::Retire => {
                        *nodes -= 1;
                        *payload_bytes -= payload.heap_bytes();
                        false
                    }
                });
            tier.due = due;
            if tier.nodes.is_empty() {
                emptied.push(*vs);
            }
        }
        for vs in emptied.iter() {
            map.remove(vs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmerge_temporal::{HeapSize, Value};

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
}
