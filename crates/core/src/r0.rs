//! Algorithm R0: LMerge for insert-only streams with strictly increasing
//! `Vs` (paper Section IV-A).
//!
//! Only two scalars of state are needed: the maximum `Vs` and the maximum
//! stable timestamp seen across all inputs. An insert is propagated iff it
//! advances `MaxVs`; everything else is a duplicate already emitted via a
//! faster input.

use crate::api::LogicalMerge;
use crate::shell::Books;
use crate::state::{MergeStateImage, VariantKind};
use lmerge_properties::RLevel;
use lmerge_temporal::{Element, Payload, StreamId, Time};

/// The R0 merge: `O(1)` state, `O(1)` per element.
#[derive(Debug)]
pub struct LMergeR0<P: Payload> {
    max_vs: Time,
    books: Books,
    _payload: std::marker::PhantomData<fn() -> P>,
}

impl<P: Payload> LMergeR0<P> {
    /// An R0 merge over `n` initially attached inputs.
    pub fn new(n: usize) -> LMergeR0<P> {
        LMergeR0 {
            max_vs: Time::MIN,
            books: Books::new(n),
            _payload: std::marker::PhantomData,
        }
    }
}

impl<P: Payload> LogicalMerge<P> for LMergeR0<P> {
    fn push(&mut self, input: StreamId, element: &Element<P>, out: &mut Vec<Element<P>>) {
        let admitted = self.books.admit(input, element);
        match element {
            // The R0 contract excludes revisions; feeding one is a
            // plan-analysis bug, not a data condition.
            Element::Adjust { .. } => {
                panic!("LMergeR0: adjust() elements are not supported in case R0")
            }
            _ if !admitted => {}
            Element::Insert(e) if e.vs > self.max_vs => {
                self.max_vs = e.vs;
                self.books.stats.inserts_out += 1;
                out.push(Element::Insert(e.clone()));
            }
            Element::Insert(_) => self.books.stats.dropped += 1,
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
        // In R0 every element below MaxVs is already settled output.
        self.max_vs.max(self.books.max_stable)
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.books.memory_bytes()
    }

    fn level(&self) -> RLevel {
        RLevel::R0
    }

    fn export_state(&self) -> Option<MergeStateImage<P>> {
        let mut img = self.books.image(VariantKind::R0);
        img.max_vs = self.max_vs;
        Some(img)
    }

    fn restore_state(&mut self, image: MergeStateImage<P>) -> bool {
        if image.kind != VariantKind::R0 {
            return false;
        }
        self.books.restore(&image);
        self.max_vs = image.max_vs;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push_all(
        lm: &mut LMergeR0<&'static str>,
        items: &[(u32, Element<&'static str>)],
    ) -> Vec<Element<&'static str>> {
        let mut out = Vec::new();
        for (s, e) in items {
            lm.push(StreamId(*s), e, &mut out);
        }
        out
    }

    #[test]
    fn fastest_input_drives_output() {
        let mut lm = LMergeR0::new(2);
        let out = push_all(
            &mut lm,
            &[
                (0, Element::insert("a", 1, 5)),
                (1, Element::insert("a", 1, 5)), // duplicate, dropped
                (1, Element::insert("b", 2, 6)),
                (0, Element::insert("b", 2, 6)), // duplicate, dropped
                (0, Element::insert("c", 3, 7)),
            ],
        );
        assert_eq!(
            out,
            vec![
                Element::insert("a", 1, 5),
                Element::insert("b", 2, 6),
                Element::insert("c", 3, 7),
            ]
        );
        assert_eq!(lm.stats().dropped, 2);
    }

    #[test]
    fn stable_propagates_only_when_advancing() {
        let mut lm: LMergeR0<&str> = LMergeR0::new(2);
        let out = push_all(
            &mut lm,
            &[
                (0, Element::stable(5)),
                (1, Element::stable(3)), // behind, swallowed
                (1, Element::stable(8)),
            ],
        );
        assert_eq!(out, vec![Element::stable(5), Element::stable(8)]);
        assert_eq!(lm.max_stable(), Time(8));
    }

    #[test]
    #[should_panic(expected = "not supported")]
    fn adjust_panics() {
        let mut lm = LMergeR0::new(1);
        let mut out = Vec::new();
        lm.push(StreamId(0), &Element::adjust("a", 1, 5, 9), &mut out);
    }

    #[test]
    fn detached_input_is_ignored() {
        let mut lm = LMergeR0::new(2);
        lm.detach(StreamId(0));
        let out = push_all(&mut lm, &[(0, Element::insert("a", 1, 5))]);
        assert!(out.is_empty());
        let out = push_all(&mut lm, &[(1, Element::insert("a", 1, 5))]);
        assert_eq!(out.len(), 1, "remaining input still drives output");
    }

    #[test]
    fn joining_streams_stable_is_gated() {
        let mut lm: LMergeR0<&str> = LMergeR0::new(1);
        let id = lm.attach(Time(100));
        let mut out = Vec::new();
        lm.push(id, &Element::stable(50), &mut out);
        assert!(out.is_empty(), "joining stream cannot drive progress");
        // The established input advances past the join point.
        lm.push(StreamId(0), &Element::stable(100), &mut out);
        out.clear();
        lm.push(id, &Element::stable(150), &mut out);
        assert_eq!(out, vec![Element::stable(150)], "joined stream trusted");
    }

    #[test]
    fn feedback_tracks_high_water_vs() {
        let mut lm = LMergeR0::new(1);
        let mut out = Vec::new();
        lm.push(StreamId(0), &Element::insert("a", 9, 12), &mut out);
        assert_eq!(lm.feedback_point(), Time(9));
    }

    #[test]
    fn memory_is_constant() {
        let mut lm = LMergeR0::new(2);
        let before = lm.memory_bytes();
        let mut out = Vec::new();
        for i in 0..1000 {
            lm.push(StreamId(0), &Element::insert("x", i, i + 1), &mut out);
        }
        assert_eq!(lm.memory_bytes(), before);
    }
}
