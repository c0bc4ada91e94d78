//! The R3+ node of the `in2t` (index-2-tier) structure of Figure 1 (left).
//!
//! The index itself is the shared tier map ([`crate::tier::Tiers`]): the
//! paper's red-black tree on `Vs` with a tier of payloads under each key,
//! which supports the `FindHalfFrozen` range scan and lets a sweep skip
//! tiers it has settled. Each node stores the event *once* — payloads are
//! shared across inputs, which is what makes LMR3+ memory nearly
//! independent of the number of inputs — plus a small table mapping each
//! input stream (and the output pseudo-stream) to its current `Ve` for the
//! event.

use crate::tier::Tiers;
use lmerge_temporal::{StreamId, Time};

/// The two-tier index: `Vs → (Payload → Node)`.
pub type In2t<P> = Tiers<P, Node>;

/// Per-key node: one shared event, per-stream current end times.
///
/// The per-stream table is a small `Vec` scanned linearly rather than a
/// map: LMerge fans in a handful of streams, and a scan over a few pairs
/// beats a hash or tree lookup. The `Vec` is a heap allocation, though: a
/// tier keeps its first node inline ([`crate::tier`]), so this table is the
/// one allocation per event the index still makes.
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

impl Default for Node {
    /// A node no input has produced and the output has not seen.
    fn default() -> Node {
        Node {
            per_input: Vec::new(),
            output_ve: NOT_EMITTED,
        }
    }
}

impl Node {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn support_counts_distinct_inputs() {
        let mut n = Node::default();
        assert!(n.set_input(StreamId(0), Time(5)));
        assert!(!n.set_input(StreamId(0), Time(7)), "same input again");
        assert!(n.set_input(StreamId(1), Time(5)));
        assert_eq!(n.support(), 2);
        assert_eq!(n.input_ve(StreamId(0)), Some(Time(7)));
        assert!(n.remove_input(StreamId(0)));
        assert!(!n.remove_input(StreamId(0)));
        assert!(!n.has_input(StreamId(0)) && n.has_input(StreamId(1)));
    }

    #[test]
    fn not_emitted_is_distinct_from_every_end_time_but_minus_infinity() {
        let mut n = Node::default();
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
}
