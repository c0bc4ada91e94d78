//! Operator statistics: element counts in and out.
//!
//! These counters back two things: the *output size / chattiness* metric of
//! the paper's evaluation ("the number of adjust() elements produced",
//! Section VI-B), and the Theorem 1 test — Algorithm R3 outputs no more
//! insert+adjust elements than the inserts it received, and no more stables
//! than the stables it received.
//!
//! [`PerInput`] breaks the input-side counts down by replica, and remembers
//! each replica's latest announced stable point — the raw material for the
//! per-input lag diagnostics ("which input is holding the merge back",
//! Section V-D).

use lmerge_temporal::{Element, Payload, StreamId, Time};

/// Counters of elements consumed and produced by an LMerge instance.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Insert elements received across all inputs.
    pub inserts_in: u64,
    /// Adjust elements received across all inputs.
    pub adjusts_in: u64,
    /// Stable elements received across all inputs.
    pub stables_in: u64,
    /// Insert elements emitted.
    pub inserts_out: u64,
    /// Adjust elements emitted (the chattiness metric).
    pub adjusts_out: u64,
    /// Stable elements emitted.
    pub stables_out: u64,
    /// Data elements dropped as duplicates/stale (already output or frozen).
    pub dropped: u64,
}

impl MergeStats {
    /// Total data+punctuation elements received.
    pub fn elements_in(&self) -> u64 {
        self.inserts_in + self.adjusts_in + self.stables_in
    }

    /// The paper's Theorem 1 bound for Algorithm R3: data output is bounded
    /// by insert input, stable output by stable input.
    pub fn satisfies_theorem1(&self) -> bool {
        self.inserts_out + self.adjusts_out <= self.inserts_in
            && self.stables_out <= self.stables_in
    }

    /// The flat tuple shape the checkpoint image carries.
    pub fn to_tuple(self) -> (u64, u64, u64, u64, u64, u64, u64) {
        (
            self.inserts_in,
            self.adjusts_in,
            self.stables_in,
            self.inserts_out,
            self.adjusts_out,
            self.stables_out,
            self.dropped,
        )
    }

    /// Inverse of [`to_tuple`](MergeStats::to_tuple).
    pub fn from_tuple(t: (u64, u64, u64, u64, u64, u64, u64)) -> MergeStats {
        MergeStats {
            inserts_in: t.0,
            adjusts_in: t.1,
            stables_in: t.2,
            inserts_out: t.3,
            adjusts_out: t.4,
            stables_out: t.5,
            dropped: t.6,
        }
    }
}

/// Delivery counters for one input replica.
///
/// Counts are taken at `push` entry, before join/leave gating — they answer
/// "what did this replica send", not "what did the merge accept".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InputCounters {
    /// Insert elements pushed by this input.
    pub inserts: u64,
    /// Adjust elements pushed by this input.
    pub adjusts: u64,
    /// Stable elements pushed by this input.
    pub stables: u64,
    /// The latest stable point this input announced (`Time::MIN` if none).
    pub last_stable: Time,
}

impl Default for InputCounters {
    fn default() -> InputCounters {
        InputCounters {
            inserts: 0,
            adjusts: 0,
            stables: 0,
            last_stable: Time::MIN,
        }
    }
}

impl InputCounters {
    /// Data (insert + adjust) elements pushed by this input.
    pub fn data(&self) -> u64 {
        self.inserts + self.adjusts
    }

    /// All elements pushed by this input.
    pub fn elements(&self) -> u64 {
        self.inserts + self.adjusts + self.stables
    }
}

/// Per-input counter registry shared by every LMerge variant.
#[derive(Clone, Debug, Default)]
pub struct PerInput {
    counters: Vec<InputCounters>,
}

impl PerInput {
    /// Counters for `n` initially attached inputs.
    pub fn new(n: usize) -> PerInput {
        PerInput {
            counters: vec![InputCounters::default(); n],
        }
    }

    /// Count one pushed element (ids beyond the current size grow the
    /// registry, so late-attached streams are always covered).
    pub fn on_element<P: Payload>(&mut self, input: StreamId, element: &Element<P>) {
        let i = input.0 as usize;
        if i >= self.counters.len() {
            self.counters.resize(i + 1, InputCounters::default());
        }
        let c = &mut self.counters[i];
        match element {
            Element::Insert(_) => c.inserts += 1,
            Element::Adjust { .. } => c.adjusts += 1,
            Element::Stable(t) => {
                c.stables += 1;
                c.last_stable = c.last_stable.max(*t);
            }
        }
    }

    /// Count a whole data-only batch in one step (the batched-push fast
    /// path; punctuation-bearing batches must go through
    /// [`PerInput::on_element`] so `last_stable` stays correct).
    pub fn on_data_batch(&mut self, input: StreamId, inserts: u64, adjusts: u64) {
        let i = input.0 as usize;
        if i >= self.counters.len() {
            self.counters.resize(i + 1, InputCounters::default());
        }
        self.counters[i].inserts += inserts;
        self.counters[i].adjusts += adjusts;
    }

    /// Register one newly attached input.
    pub fn on_attach(&mut self) {
        self.counters.push(InputCounters::default());
    }

    /// The counters, indexed by input id.
    pub fn counters(&self) -> &[InputCounters] {
        &self.counters
    }

    /// Approximate memory footprint of the registry — by length, not
    /// capacity, so a restored registry reports what its source did.
    pub fn memory_bytes(&self) -> usize {
        self.counters.len() * std::mem::size_of::<InputCounters>()
    }

    /// Replace the registry wholesale from a checkpoint image.
    pub fn restore_counters(&mut self, counters: &[InputCounters]) {
        self.counters = counters.to_vec();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals() {
        let s = MergeStats {
            inserts_in: 10,
            adjusts_in: 2,
            stables_in: 3,
            inserts_out: 8,
            adjusts_out: 1,
            stables_out: 3,
            dropped: 3,
        };
        assert_eq!(s.elements_in(), 15);
        assert!(s.satisfies_theorem1());
    }

    #[test]
    fn theorem1_violation_detected() {
        let s = MergeStats {
            inserts_in: 5,
            inserts_out: 4,
            adjusts_out: 2,
            ..Default::default()
        };
        assert!(!s.satisfies_theorem1());
    }

    #[test]
    fn per_input_counts_by_replica() {
        let mut p = PerInput::new(2);
        p.on_element(StreamId(0), &Element::insert("a", 1, 5));
        p.on_element(StreamId(0), &Element::adjust("a", 1, 5, 7));
        p.on_element(StreamId(1), &Element::<&str>::stable(9));
        p.on_element(StreamId(1), &Element::<&str>::stable(4)); // regression ignored
        assert_eq!(p.counters()[0].data(), 2);
        assert_eq!(p.counters()[0].last_stable, Time::MIN);
        assert_eq!(p.counters()[1].stables, 2);
        assert_eq!(p.counters()[1].last_stable, Time(9));
        assert_eq!(p.counters()[1].elements(), 2);
    }

    #[test]
    fn per_input_grows_for_late_ids() {
        let mut p = PerInput::new(1);
        p.on_element(StreamId(3), &Element::insert("x", 1, 2));
        assert_eq!(p.counters().len(), 4);
        p.on_attach();
        assert_eq!(p.counters().len(), 5);
    }
}
