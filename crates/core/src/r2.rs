//! Algorithm R2: LMerge for insert-only, non-decreasing streams where
//! elements with equal `Vs` may arrive in *different* orders on different
//! inputs (paper Section IV-C).
//!
//! A hash table indexes (by payload) every element at the current `MaxVs`;
//! an insert is new exactly when the sending input has presented more
//! occurrences of the payload than the output has emitted. When
//! `(Vs, Payload)` is a key (the paper's stated assumption) the counts are
//! all 0/1 and this degenerates to a set-membership test; the counting form
//! is the "relaxation to handle duplicates" the paper notes is
//! "straightforward and omitted".

use crate::api::LogicalMerge;
use crate::shell::Books;
use crate::state::{MergeStateImage, StateEntry, VariantKind};
use lmerge_properties::RLevel;
use lmerge_temporal::{Element, Payload, StreamId, Time};
use std::collections::HashMap;

/// Per-payload occurrence counts at the current `MaxVs`.
#[derive(Debug, Default, Clone)]
struct Counts {
    /// `(input id, occurrences seen)`, a small linear-scan table.
    per_input: Vec<(u32, u64)>,
    /// Occurrences emitted on the output.
    out: u64,
}

impl Counts {
    fn bump(&mut self, s: StreamId) -> u64 {
        for entry in &mut self.per_input {
            if entry.0 == s.0 {
                entry.1 += 1;
                return entry.1;
            }
        }
        self.per_input.push((s.0, 1));
        1
    }
}

/// The R2 merge: `O(g·p)` state (all events at the newest timestamp).
#[derive(Debug)]
pub struct LMergeR2<P: Payload> {
    max_vs: Time,
    /// Occurrence counts per payload with `Vs == MaxVs`.
    at_max_vs: HashMap<P, Counts>,
    /// Retained payload bytes in `at_max_vs` (memory metric).
    payload_bytes: usize,
    books: Books,
}

impl<P: Payload> LMergeR2<P> {
    /// An R2 merge over `n` initially attached inputs.
    pub fn new(n: usize) -> LMergeR2<P> {
        LMergeR2 {
            max_vs: Time::MIN,
            at_max_vs: HashMap::new(),
            payload_bytes: 0,
            books: Books::new(n),
        }
    }
}

impl<P: Payload> LogicalMerge<P> for LMergeR2<P> {
    fn push(&mut self, input: StreamId, element: &Element<P>, out: &mut Vec<Element<P>>) {
        let admitted = self.books.admit(input, element);
        let stats = &mut self.books.stats;
        match element {
            Element::Adjust { .. } => {
                panic!("LMergeR2: adjust() elements are not supported in case R2")
            }
            _ if !admitted => {}
            Element::Insert(e) if e.vs < self.max_vs => stats.dropped += 1,
            Element::Insert(e) => {
                if e.vs > self.max_vs {
                    self.at_max_vs.clear();
                    self.payload_bytes = 0;
                    self.max_vs = e.vs;
                }
                let counts = match self.at_max_vs.get_mut(&e.payload) {
                    Some(c) => c,
                    None => {
                        self.payload_bytes += e.payload.heap_bytes();
                        self.at_max_vs.entry(e.payload.clone()).or_default()
                    }
                };
                // New exactly when this input has now presented more
                // occurrences than the output carries.
                if counts.bump(input) > counts.out {
                    counts.out += 1;
                    stats.inserts_out += 1;
                    out.push(Element::Insert(e.clone()));
                } else {
                    stats.dropped += 1;
                }
            }
            Element::Stable(t) => self.books.propagate(*t, out),
        }
    }

    fn attach(&mut self, join_time: Time) -> StreamId {
        self.books.attach(join_time)
    }

    fn detach(&mut self, input: StreamId) {
        self.books.inputs.detach(input);
    }

    crate::shell::books_accessors!();

    fn feedback_point(&self) -> Time {
        self.max_vs.max(self.books.max_stable)
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.at_max_vs.capacity() * std::mem::size_of::<P>()
            + self.payload_bytes
            + self.books.memory_bytes()
    }

    fn level(&self) -> RLevel {
        RLevel::R2
    }

    fn export_state(&self) -> Option<MergeStateImage<P>> {
        let mut img = self.books.image(VariantKind::R2);
        img.max_vs = self.max_vs;
        // The live table is a hash map, so the export sorts by payload to
        // reach the canonical entry order the image contract requires.
        // Counts are carried as a single `(Time::MIN, n)` bucket — R2 has no
        // per-occurrence `Ve` to remember, only multiplicities at `max_vs`.
        let mut entries: Vec<StateEntry<P>> = self
            .at_max_vs
            .iter()
            .map(|(p, c)| {
                let mut per_input: Vec<(u32, Vec<(Time, u64)>)> = c
                    .per_input
                    .iter()
                    .map(|&(id, n)| (id, vec![(Time::MIN, n)]))
                    .collect();
                per_input.sort_by_key(|e| e.0);
                StateEntry {
                    vs: self.max_vs,
                    payload: p.clone(),
                    per_input,
                    output: if c.out > 0 {
                        vec![(Time::MIN, c.out)]
                    } else {
                        Vec::new()
                    },
                }
            })
            .collect();
        entries.sort_by(|a, b| a.payload.cmp(&b.payload));
        img.entries = entries;
        Some(img)
    }

    fn restore_state(&mut self, image: MergeStateImage<P>) -> bool {
        if image.kind != VariantKind::R2 {
            return false;
        }
        self.books.restore(&image);
        self.max_vs = image.max_vs;
        self.payload_bytes = image.entries.iter().map(|e| e.payload.heap_bytes()).sum();
        self.at_max_vs = image
            .entries
            .into_iter()
            .map(|e| {
                let counts = Counts {
                    per_input: e
                        .per_input
                        .iter()
                        .map(|(id, m)| (*id, m.first().map_or(0, |&(_, n)| n)))
                        .collect(),
                    out: e.output.first().map_or(0, |&(_, n)| n),
                };
                (e.payload, counts)
            })
            .collect();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_vs_different_orders_merge_cleanly() {
        // Grouped aggregation: per-group results at Vs=1, opposite orders.
        let mut lm = LMergeR2::new(2);
        let mut out = Vec::new();
        lm.push(StreamId(0), &Element::insert("g1", 1, 5), &mut out);
        lm.push(StreamId(1), &Element::insert("g2", 1, 5), &mut out); // new payload!
        lm.push(StreamId(1), &Element::insert("g1", 1, 5), &mut out); // dup
        lm.push(StreamId(0), &Element::insert("g2", 1, 5), &mut out); // dup
        assert_eq!(
            out,
            vec![Element::insert("g1", 1, 5), Element::insert("g2", 1, 5)]
        );
        assert_eq!(lm.stats().dropped, 2);
    }

    #[test]
    fn new_vs_clears_hash() {
        let mut lm = LMergeR2::new(1);
        let mut out = Vec::new();
        lm.push(StreamId(0), &Element::insert("g1", 1, 5), &mut out);
        lm.push(StreamId(0), &Element::insert("g1", 2, 6), &mut out);
        assert_eq!(out.len(), 2, "same payload at a later Vs is a new event");
    }

    #[test]
    fn stale_insert_dropped() {
        let mut lm = LMergeR2::new(2);
        let mut out = Vec::new();
        lm.push(StreamId(0), &Element::insert("a", 5, 9), &mut out);
        lm.push(StreamId(1), &Element::insert("b", 4, 9), &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn memory_tracks_payloads_at_max_vs() {
        use lmerge_temporal::Value;
        let mut lm = LMergeR2::new(1);
        let mut out = Vec::new();
        let m0 = lm.memory_bytes();
        for k in 0..10 {
            lm.push(
                StreamId(0),
                &Element::insert(Value::synthetic(k, 1000), 1, 50),
                &mut out,
            );
        }
        assert!(lm.memory_bytes() >= m0 + 10_000, "10 payloads retained");
        // Advancing Vs releases them.
        lm.push(
            StreamId(0),
            &Element::insert(Value::synthetic(99, 1000), 2, 50),
            &mut out,
        );
        assert!(lm.memory_bytes() < m0 + 10_000);
    }

    #[test]
    fn stable_behaviour_matches_r0() {
        let mut lm: LMergeR2<&str> = LMergeR2::new(2);
        let mut out = Vec::new();
        lm.push(StreamId(0), &Element::stable(5), &mut out);
        lm.push(StreamId(1), &Element::stable(5), &mut out);
        assert_eq!(out, vec![Element::stable(5)]);
    }
}

#[cfg(test)]
mod duplicate_relaxation_tests {
    use super::*;

    #[test]
    fn duplicate_events_at_one_timestamp_are_preserved() {
        // Two genuine occurrences of the same payload at the same Vs.
        let mut lm = LMergeR2::new(2);
        let mut out = Vec::new();
        for s in 0..2u32 {
            lm.push(StreamId(s), &Element::insert("A", 1, 5), &mut out);
            lm.push(StreamId(s), &Element::insert("A", 1, 5), &mut out);
        }
        assert_eq!(out.len(), 2, "two occurrences, not one, not four");
    }

    #[test]
    fn asymmetric_duplicate_counts_follow_the_maximum() {
        let mut lm = LMergeR2::new(2);
        let mut out = Vec::new();
        lm.push(StreamId(0), &Element::insert("A", 1, 5), &mut out);
        lm.push(StreamId(1), &Element::insert("A", 1, 5), &mut out); // dup
        lm.push(StreamId(1), &Element::insert("A", 1, 5), &mut out); // 2nd occurrence
        lm.push(StreamId(1), &Element::insert("A", 1, 5), &mut out); // 3rd occurrence
        lm.push(StreamId(0), &Element::insert("A", 1, 5), &mut out); // dup of 2nd
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn counts_reset_on_new_timestamp() {
        let mut lm = LMergeR2::new(1);
        let mut out = Vec::new();
        lm.push(StreamId(0), &Element::insert("A", 1, 5), &mut out);
        lm.push(StreamId(0), &Element::insert("A", 1, 5), &mut out);
        lm.push(StreamId(0), &Element::insert("A", 2, 6), &mut out);
        lm.push(StreamId(0), &Element::insert("A", 2, 6), &mut out);
        assert_eq!(out.len(), 4, "each timestamp counts separately");
    }
}
