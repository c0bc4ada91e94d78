//! Algorithm R1: LMerge for insert-only streams with non-decreasing `Vs`
//! and deterministic order among equal timestamps (paper Section IV-B).
//!
//! Because elements with the same `Vs` arrive in the *same* order on every
//! input (e.g. Top-k rank order), it suffices to count how many elements
//! each input has presented at the current `MaxVs`: an insert is new exactly
//! when its input's counter catches up with the global maximum.

use crate::api::LogicalMerge;
use crate::shell::Books;
use crate::state::{MergeStateImage, VariantKind};
use lmerge_properties::RLevel;
use lmerge_temporal::{Element, Payload, StreamId, Time};

/// The R1 merge: `O(s)` state (one counter per input).
#[derive(Debug)]
pub struct LMergeR1<P: Payload> {
    max_vs: Time,
    /// `SameVsCount[s]`: elements with `Vs == MaxVs` seen on input `s`.
    same_vs_count: Vec<u64>,
    books: Books,
    _payload: std::marker::PhantomData<fn() -> P>,
}

impl<P: Payload> LMergeR1<P> {
    /// An R1 merge over `n` initially attached inputs.
    pub fn new(n: usize) -> LMergeR1<P> {
        LMergeR1 {
            max_vs: Time::MIN,
            same_vs_count: vec![0; n],
            books: Books::new(n),
            _payload: std::marker::PhantomData,
        }
    }

    /// The number of elements already output for the current `MaxVs`
    /// (equals `MAX(SameVsCount)` in the paper's formulation).
    fn emitted_at_max_vs(&self) -> u64 {
        self.same_vs_count.iter().copied().max().unwrap_or(0)
    }
}

impl<P: Payload> LogicalMerge<P> for LMergeR1<P> {
    fn push(&mut self, input: StreamId, element: &Element<P>, out: &mut Vec<Element<P>>) {
        let admitted = self.books.admit(input, element);
        match element {
            Element::Adjust { .. } => {
                panic!("LMergeR1: adjust() elements are not supported in case R1")
            }
            _ if !admitted => {}
            Element::Insert(e) if e.vs < self.max_vs => self.books.stats.dropped += 1,
            Element::Insert(e) => {
                if e.vs > self.max_vs {
                    self.same_vs_count.iter_mut().for_each(|c| *c = 0);
                    self.max_vs = e.vs;
                }
                let s = input.0 as usize;
                if s >= self.same_vs_count.len() {
                    self.same_vs_count.resize(s + 1, 0);
                }
                if self.emitted_at_max_vs() == self.same_vs_count[s] {
                    self.books.stats.inserts_out += 1;
                    out.push(Element::Insert(e.clone()));
                } else {
                    self.books.stats.dropped += 1;
                }
                self.same_vs_count[s] += 1;
            }
            Element::Stable(t) => self.books.propagate(*t, out),
        }
    }

    fn attach(&mut self, join_time: Time) -> StreamId {
        let id = self.books.attach(join_time);
        // A fresh input has presented nothing at the current MaxVs.
        self.same_vs_count.resize(self.books.inputs.allocated(), 0);
        id
    }

    fn detach(&mut self, input: StreamId) {
        self.books.inputs.detach(input);
        // Keep the detached counter: it records how many elements at MaxVs
        // were already emitted on its behalf, which still suppresses
        // duplicates from slower inputs.
    }

    crate::shell::books_accessors!();

    fn feedback_point(&self) -> Time {
        self.max_vs.max(self.books.max_stable)
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.same_vs_count.capacity() * std::mem::size_of::<u64>()
            + self.books.memory_bytes()
    }

    fn level(&self) -> RLevel {
        RLevel::R1
    }

    fn export_state(&self) -> Option<MergeStateImage<P>> {
        let mut img = self.books.image(VariantKind::R1);
        img.max_vs = self.max_vs;
        img.same_vs_count = self.same_vs_count.clone();
        Some(img)
    }

    fn restore_state(&mut self, image: MergeStateImage<P>) -> bool {
        if image.kind != VariantKind::R1 {
            return false;
        }
        self.books.restore(&image);
        self.max_vs = image.max_vs;
        self.same_vs_count = image.same_vs_count;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_timestamps_in_rank_order() {
        // Two inputs present the same three-ranked Top-k result for Vs = 1.
        let mut lm = LMergeR1::new(2);
        let mut out = Vec::new();
        lm.push(StreamId(0), &Element::insert("r1", 1, 5), &mut out);
        lm.push(StreamId(0), &Element::insert("r2", 1, 5), &mut out);
        lm.push(StreamId(1), &Element::insert("r1", 1, 5), &mut out); // dup
        lm.push(StreamId(1), &Element::insert("r2", 1, 5), &mut out); // dup
        lm.push(StreamId(1), &Element::insert("r3", 1, 5), &mut out); // new!
        assert_eq!(
            out,
            vec![
                Element::insert("r1", 1, 5),
                Element::insert("r2", 1, 5),
                Element::insert("r3", 1, 5),
            ]
        );
        assert_eq!(lm.stats().dropped, 2);
    }

    #[test]
    fn advancing_vs_resets_counters() {
        let mut lm = LMergeR1::new(2);
        let mut out = Vec::new();
        lm.push(StreamId(0), &Element::insert("a", 1, 5), &mut out);
        lm.push(StreamId(0), &Element::insert("b", 2, 6), &mut out);
        // Input 1 catches up at Vs=2: first element there is a duplicate.
        lm.push(StreamId(1), &Element::insert("b", 2, 6), &mut out);
        lm.push(StreamId(1), &Element::insert("c", 2, 6), &mut out);
        assert_eq!(out.len(), 3);
        assert_eq!(out[2], Element::insert("c", 2, 6));
    }

    #[test]
    fn stale_vs_dropped() {
        let mut lm = LMergeR1::new(2);
        let mut out = Vec::new();
        lm.push(StreamId(0), &Element::insert("a", 5, 9), &mut out);
        lm.push(StreamId(1), &Element::insert("z", 3, 9), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(lm.stats().dropped, 1);
    }

    #[test]
    fn detached_counter_still_suppresses_duplicates() {
        let mut lm = LMergeR1::new(2);
        let mut out = Vec::new();
        lm.push(StreamId(0), &Element::insert("a", 1, 5), &mut out);
        lm.push(StreamId(0), &Element::insert("b", 1, 5), &mut out);
        lm.detach(StreamId(0));
        // Input 1 replays the same two elements: both are duplicates.
        lm.push(StreamId(1), &Element::insert("a", 1, 5), &mut out);
        lm.push(StreamId(1), &Element::insert("b", 1, 5), &mut out);
        lm.push(StreamId(1), &Element::insert("c", 1, 5), &mut out);
        assert_eq!(out.len(), 3);
        assert_eq!(out[2], Element::insert("c", 1, 5));
    }

    #[test]
    fn attach_grows_counters() {
        let mut lm: LMergeR1<&str> = LMergeR1::new(1);
        let id = lm.attach(Time::MIN);
        let mut out = Vec::new();
        lm.push(id, &Element::insert("a", 1, 5), &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn theorem1_style_bound_holds() {
        let mut lm = LMergeR1::new(3);
        let mut out = Vec::new();
        for s in 0..3u32 {
            for i in 0..50 {
                lm.push(StreamId(s), &Element::insert("x", i, i + 10), &mut out);
                lm.push(StreamId(s), &Element::stable(i), &mut out);
            }
        }
        assert!(lm.stats().satisfies_theorem1());
    }
}
