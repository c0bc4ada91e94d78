//! The R4 node of the `in3t` (index-3-tier) structure of Figure 1 (right).
//!
//! R4 permits several events with the same `(Vs, Payload)` and different
//! `Ve`s, plus exact duplicates. Its node therefore replaces the R3+ node's
//! single `Ve` per stream ([`crate::in2t::Node`]) with a small ordered map
//! `Ve → count` per stream (the paper uses a red-black tree with counts);
//! the index is the same tier map ([`crate::tier::Tiers`]).

use lmerge_temporal::{StreamId, Time};
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_max_ve() {
        let mut n = Node::default();
        n.increment(StreamId(0), Time(5));
        n.increment(StreamId(0), Time(5));
        n.increment(StreamId(0), Time(9));
        assert_eq!(n.count_of(StreamId(0)), 3);
        assert_eq!(n.max_ve(StreamId(0)), Some(Time(9)));
        assert!(n.decrement(StreamId(0), Time(9)));
        assert_eq!(n.max_ve(StreamId(0)), Some(Time(5)));
        assert!(!n.decrement(StreamId(0), Time(9)), "already gone");
        assert!(!n.decrement(StreamId(1), Time(5)), "no such stream");
    }

    #[test]
    fn output_multiset_and_min_ve() {
        let mut n = Node::default();
        assert_eq!(n.min_ve(), Time::INFINITY);
        n.increment(StreamId(0), Time(40));
        n.out_increment(Time(12));
        n.out_increment(Time(12));
        assert_eq!(n.count_out(), 2);
        assert_eq!(n.min_ve(), Time(12), "the output's buckets count");
        assert!(n.out_decrement(Time(12)));
        assert_eq!(n.count_out(), 1);
        assert!(!n.out_decrement(Time(7)));
    }
}
