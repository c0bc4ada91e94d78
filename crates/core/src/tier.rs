//! The `Vs → (Payload → node)` tier map shared by [`crate::in2t::In2t`] and
//! [`crate::in3t::In3t`], and the one place that knows which tiers a
//! `stable(t)` sweep may skip.
//!
//! Every tier carries a **due bound**: a lower bound on the smallest stable
//! time at which the sweep visitor could emit, mutate or retire anything in
//! it. `sweep(t, …)` skips a tier whose bound is `≥ t` and re-derives the
//! bound of every tier it does walk from what the visitor reports per kept
//! node ([`SweepAction::KeepUntil`]). The bound is private to this module
//! and every path that hands out mutable access to a tier's nodes resets it
//! to −∞ first, so a stale promise cannot survive a change: skipping is an
//! optimisation of *which tiers are walked*, never of what a walk does.
//!
//! Every tier also carries a **changed** bit: set on the same paths that
//! reset the due bound, on every tier a sweep walks and on a removal the
//! tier survives, and cleared by [`Tiers::clear_changed`]. A checkpoint cut
//! exports the entries of the changed tiers and the keys of all live ones
//! ([`Tiers::export`]), so an unchanged tier costs a key, not its entries.

use lmerge_temporal::Time;
use std::collections::BTreeMap;

/// Verdict returned by a sweep visitor for each visited node. Shared by
/// [`crate::in2t::In2t`] and [`crate::in3t::In3t`].
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
pub(crate) struct Tiers<P, N> {
    map: BTreeMap<Time, Tier<P, N>>,
    /// Keys of the tiers the running sweep emptied. Kept between sweeps so
    /// that a punctuation allocates nothing.
    emptied: Vec<Time>,
}

impl<P: Ord, N> Tiers<P, N> {
    pub(crate) fn new() -> Self {
        Tiers {
            map: BTreeMap::new(),
            emptied: Vec::new(),
        }
    }

    /// Number of distinct live `Vs` values.
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    pub(crate) fn get(&self, vs: Time, payload: &P) -> Option<&N> {
        self.map.get(&vs).and_then(|t| t.nodes.get(payload))
    }

    /// Mutable lookup. A hit marks the tier due: the caller may change the
    /// node's end times.
    pub(crate) fn get_mut(&mut self, vs: Time, payload: &P) -> Option<&mut N> {
        let tier = self.map.get_mut(&vs)?;
        let node = tier.nodes.get_mut(payload)?;
        tier.due = Time::MIN;
        tier.changed = true;
        Some(node)
    }

    /// The payload map of tier `vs`, created empty if absent, marked due.
    pub(crate) fn tier_mut(&mut self, vs: Time) -> &mut BTreeMap<P, N> {
        let tier = self.map.entry(vs).or_insert_with(|| Tier {
            nodes: BTreeMap::new(),
            due: Time::MIN,
            changed: true,
        });
        tier.touch();
        &mut tier.nodes
    }

    /// Unlink the node for `(vs, payload)`, and its tier if that empties it.
    /// (Removal can only raise a tier's true bound, so `due` stays valid.)
    pub(crate) fn remove(&mut self, vs: Time, payload: &P) -> Option<N> {
        let tier = self.map.get_mut(&vs)?;
        let node = tier.nodes.remove(payload);
        tier.changed |= node.is_some();
        if tier.nodes.is_empty() {
            self.map.remove(&vs);
        }
        node
    }

    /// The smallest live `Vs`, if any.
    pub(crate) fn min_vs(&self) -> Option<Time> {
        self.map.keys().next().copied()
    }

    /// Every node in canonical `(Vs, payload)` order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Time, &P, &N)> + '_ {
        self.map
            .iter()
            .flat_map(|(vs, t)| t.nodes.iter().map(move |(p, n)| (*vs, p, n)))
    }

    /// Every node with `Vs < t`, in canonical order.
    pub(crate) fn iter_below(&self, t: Time) -> impl Iterator<Item = (Time, &P, &N)> + '_ {
        self.map
            .range(..t)
            .flat_map(|(vs, t)| t.nodes.iter().map(move |(p, n)| (*vs, p, n)))
    }

    /// Every node, mutably; every tier is marked due.
    pub(crate) fn nodes_mut(&mut self) -> impl Iterator<Item = &mut N> + '_ {
        self.map.values_mut().flat_map(|t| {
            t.touch();
            t.nodes.values_mut()
        })
    }

    /// Mark every tier due without touching a node: something outside the
    /// index changed what a sweep would do (an input attached).
    pub(crate) fn mark_all_due(&mut self) {
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

    /// Walk the tiers with `Vs < t` in `Vs` order, skipping those whose due
    /// bound is `≥ t`, and call `visit` on every node of the others in
    /// payload order. Retired nodes are passed to `retired` (for the
    /// caller's bookkeeping) and unlinked during the walk; tiers that empty
    /// are unlinked after it, at a cost that follows their number rather
    /// than the size of the map.
    pub(crate) fn sweep<V, R>(&mut self, t: Time, mut visit: V, mut retired: R)
    where
        V: FnMut(Time, &P, &mut N) -> SweepAction,
        R: FnMut(&P, &N),
    {
        let Tiers { map, emptied } = self;
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
                        retired(payload, node);
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

    fn tiers(keys: &[(i64, &'static str)]) -> Tiers<&'static str, i64> {
        let mut t = Tiers::new();
        for &(vs, p) in keys {
            t.tier_mut(Time(vs)).insert(p, 0);
        }
        t
    }

    /// Sweep at `t`, settling every visited node until `until`; returns the
    /// visited keys.
    fn settle(t: &mut Tiers<&'static str, i64>, at: i64, until: i64) -> Vec<(Time, &'static str)> {
        let mut seen = Vec::new();
        t.sweep(
            Time(at),
            |vs, p, _| {
                seen.push((vs, *p));
                SweepAction::KeepUntil(Time(until))
            },
            |_, _| {},
        );
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
        t.sweep(
            Time(10),
            |_, p, _| match *p {
                "A" => SweepAction::KeepUntil(Time(50)),
                "B" => SweepAction::KeepUntil(Time(12)),
                _ => SweepAction::Keep,
            },
            |_, _| {},
        );
        // Tier 1 is due at 13 (> 12) although A alone would hold until 50;
        // tier 2 made no promise and is due at once.
        assert_eq!(
            settle(&mut t, 11, 100),
            vec![(Time(2), "C")],
            "tier 1 settled through 12, tier 2 unpromised"
        );
        let mut t = tiers(&[(1, "A"), (1, "B")]);
        t.sweep(
            Time(10),
            |_, p, _| match *p {
                "A" => SweepAction::KeepUntil(Time(50)),
                _ => SweepAction::KeepUntil(Time(12)),
            },
            |_, _| {},
        );
        assert!(settle(&mut t, 12, 100).is_empty());
        assert_eq!(settle(&mut t, 13, 100).len(), 2, "whole tier walked");
    }

    #[test]
    fn every_mutable_access_resets_the_bound() {
        type Touch = fn(&mut Tiers<&'static str, i64>);
        let touches: [(&str, Touch); 4] = [
            ("get_mut", |t| {
                t.get_mut(Time(1), &"A").unwrap();
            }),
            ("tier_mut", |t| {
                t.tier_mut(Time(1));
            }),
            ("nodes_mut", |t| t.nodes_mut().for_each(|n| *n += 1)),
            ("mark_all_due", |t| t.mark_all_due()),
        ];
        for (name, touch) in touches {
            let mut t = tiers(&[(1, "A")]);
            settle(&mut t, 10, 100);
            assert!(settle(&mut t, 11, 100).is_empty(), "{name}: settled");
            touch(&mut t);
            assert_eq!(settle(&mut t, 12, 100).len(), 1, "{name} must reset");
        }
        // A miss changes nothing and resets nothing.
        let mut t = tiers(&[(1, "A")]);
        settle(&mut t, 10, 100);
        assert!(t.get_mut(Time(1), &"Z").is_none());
        assert!(t.get_mut(Time(7), &"A").is_none());
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
                "tier_mut",
                |t| {
                    t.tier_mut(Time(2)).insert("Z", 0);
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
    fn emptied_tiers_are_unlinked_and_only_those() {
        let mut t = tiers(&[(1, "A"), (2, "B"), (2, "C"), (3, "D"), (9, "E")]);
        let mut gone = Vec::new();
        t.sweep(
            Time(5),
            |_, p, _| {
                if matches!(*p, "A" | "B" | "D") {
                    SweepAction::Retire
                } else {
                    SweepAction::Keep
                }
            },
            |p, _| gone.push(*p),
        );
        assert_eq!(gone, vec!["A", "B", "D"]);
        assert_eq!(t.len(), 2, "tiers 1 and 3 unlinked, 2 and 9 stay");
        assert_eq!(t.min_vs(), Some(Time(2)));
        let left: Vec<_> = t.iter().map(|(vs, p, _)| (vs.0, *p)).collect();
        assert_eq!(left, vec![(2, "C"), (9, "E")]);
    }

    #[test]
    fn remove_unlinks_an_emptied_tier() {
        let mut t = tiers(&[(1, "A"), (4, "B")]);
        assert_eq!(t.remove(Time(1), &"A"), Some(0));
        assert_eq!(t.remove(Time(1), &"A"), None);
        assert_eq!(t.min_vs(), Some(Time(4)));
    }
}
