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

/// Input ids below this keep their end time inside the node.
pub const INLINE_INPUTS: usize = 4;

/// Per-key node: one shared event, per-stream current end times.
///
/// The per-stream table sits in the node, one slot per input id below
/// [`INLINE_INPUTS`], so a merge of up to that many inputs allocates nothing
/// per event: a tier keeps its first node inline ([`crate::tier`]), and the
/// node keeps its end times inline. Larger ids spill into a `Vec` sorted by
/// id, unallocated until the first one arrives. The node is 64 bytes.
#[derive(Clone, Debug)]
pub struct Node {
    /// `inline[i]`: input `i`'s current `Ve`, [`ABSENT`] if it has none.
    inline: [Time; INLINE_INPUTS],
    /// Current `Ve` on the output — the paper's hash entry with "special
    /// key ∞". [`ABSENT`] until first emitted (the `WaitHalfFrozen`/`Quorum`
    /// insert policies defer that), which keeps the field at 8 bytes where
    /// an `Option<Time>` takes 16.
    output_ve: Time,
    /// `(input, Ve)` of the inputs with ids from [`INLINE_INPUTS`] on,
    /// sorted by id.
    spill: Vec<(u32, Time)>,
}

/// The end time of a stream that has none on the node. −∞ cannot be an
/// event's end time: it lies at or before every `Vs`.
const ABSENT: Time = Time::MIN;

impl Default for Node {
    /// A node no input has produced and the output has not seen.
    fn default() -> Node {
        Node {
            inline: [ABSENT; INLINE_INPUTS],
            output_ve: ABSENT,
            spill: Vec::new(),
        }
    }
}

impl Node {
    /// Current `Ve` on the output, `None` until first emitted.
    pub fn output_ve(&self) -> Option<Time> {
        (self.output_ve != ABSENT).then_some(self.output_ve)
    }

    /// Record the output's `Ve` (`None`: taken back out of the output).
    /// `Some(−∞)` would read back as `None`; R3 drops such end times at its
    /// boundary.
    pub fn set_output_ve(&mut self, ve: Option<Time>) {
        debug_assert!(ve != Some(ABSENT), "−∞ is not an end time");
        self.output_ve = ve.unwrap_or(ABSENT);
    }

    /// The smallest `Ve` recorded on the node, inputs and output alike
    /// (`+∞` for a node with neither) — below it no recorded end time can
    /// freeze.
    pub fn min_ve(&self) -> Time {
        self.entries()
            .map(|(_, ve)| ve)
            .chain(self.output_ve())
            .min()
            .unwrap_or(Time::INFINITY)
    }

    /// Record `ve` for input `s`. Returns true when `s` is new to the node.
    /// `−∞` would read back as absent; R3 drops such end times at its
    /// boundary.
    pub fn set_input(&mut self, s: StreamId, ve: Time) -> bool {
        debug_assert!(ve != ABSENT, "−∞ is not an end time");
        if let Some(slot) = self.inline.get_mut(s.0 as usize) {
            return std::mem::replace(slot, ve) == ABSENT;
        }
        match self.spill.binary_search_by_key(&s.0, |e| e.0) {
            Ok(i) => {
                self.spill[i].1 = ve;
                false
            }
            Err(i) => {
                self.spill.insert(i, (s.0, ve));
                true
            }
        }
    }

    /// The current `Ve` recorded for input `s`, if any.
    pub fn input_ve(&self, s: StreamId) -> Option<Time> {
        match self.inline.get(s.0 as usize) {
            Some(&ve) => (ve != ABSENT).then_some(ve),
            None => self
                .spill
                .binary_search_by_key(&s.0, |e| e.0)
                .ok()
                .map(|i| self.spill[i].1),
        }
    }

    /// Whether input `s` has produced the event.
    pub fn has_input(&self, s: StreamId) -> bool {
        self.input_ve(s).is_some()
    }

    /// Drop input `s`'s entry. Returns true if one existed.
    pub fn remove_input(&mut self, s: StreamId) -> bool {
        if let Some(slot) = self.inline.get_mut(s.0 as usize) {
            return std::mem::replace(slot, ABSENT) != ABSENT;
        }
        match self.spill.binary_search_by_key(&s.0, |e| e.0) {
            Ok(i) => {
                self.spill.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// Number of distinct inputs that have produced the event (drives the
    /// `Quorum` insert policy).
    pub fn support(&self) -> u32 {
        (self.inline.iter().filter(|&&ve| ve != ABSENT).count() + self.spill.len()) as u32
    }

    /// Number of entries held outside the node (ids from
    /// [`INLINE_INPUTS`] on).
    pub fn spilled(&self) -> usize {
        self.spill.len()
    }

    /// Iterate the `(input, Ve)` entries currently recorded on the node, in
    /// input id order (robustness accounting: callers decrement per-input
    /// live-entry counters when a node retires).
    pub fn entries(&self) -> impl Iterator<Item = (StreamId, Time)> + '_ {
        let inline = (0u32..).zip(self.inline).filter(|&(_, ve)| ve != ABSENT);
        inline
            .chain(self.spill.iter().copied())
            .map(|(id, ve)| (StreamId(id), ve))
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
        assert_eq!(std::mem::size_of::<Node>(), 64);
    }

    #[test]
    fn low_ids_stay_inline_and_high_ids_spill_in_id_order() {
        let mut n = Node::default();
        for id in 0..INLINE_INPUTS as u32 {
            assert!(n.set_input(StreamId(id), Time(10 + i64::from(id))));
        }
        assert_eq!(
            n.spilled(),
            0,
            "ids below the inline capacity allocate nothing"
        );
        assert_eq!(n.spill.capacity(), 0);
        for id in [9u32, 5, 7] {
            assert!(n.set_input(StreamId(id), Time(i64::from(id))));
        }
        assert!(
            !n.set_input(StreamId(7), Time(70)),
            "an update spills nothing"
        );
        assert_eq!(n.spilled(), 3);
        assert_eq!(n.support(), 7);
        let ids: Vec<u32> = n.entries().map(|(s, _)| s.0).collect();
        assert_eq!(ids, [0, 1, 2, 3, 5, 7, 9], "entries come in id order");
        assert_eq!(n.input_ve(StreamId(7)), Some(Time(70)));
        assert_eq!(n.input_ve(StreamId(6)), None);
        assert_eq!(n.min_ve(), Time(5));
        assert!(n.remove_input(StreamId(5)) && !n.remove_input(StreamId(5)));
        assert!(n.remove_input(StreamId(1)) && !n.has_input(StreamId(1)));
        assert_eq!((n.spilled(), n.support()), (2, 5));
    }
}
