//! Physical stream elements in the StreamInsight model (paper Example 5).

use crate::event::Event;
use crate::payload::Payload;
use crate::time::Time;

/// Identifier of one input stream attached to an operator.
///
/// The paper's pseudocode passes the stream id `s` alongside every element;
/// we do the same. Ids are small dense integers assigned by whoever owns the
/// inputs (LMerge assigns them at `attach` time).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct StreamId(pub u32);

/// A physical stream element (StreamInsight model, Example 5 of the paper).
///
/// * `Insert(⟨p, Vs, Ve⟩)` adds an event to the TDB; `Ve` may be `∞`.
/// * `Adjust { p, vs, vold, ve }` changes event `⟨p, Vs, Vold⟩` to
///   `⟨p, Vs, Ve⟩`; if `ve == vs` the event is removed entirely.
/// * `Stable(Vc)` asserts that the portion of the TDB before `Vc` is stable:
///   no future insert with `Vs < Vc`, and no future adjust with `Vold < Vc`
///   or `Ve < Vc`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum Element<P> {
    /// Add a new event.
    Insert(Event<P>),
    /// Change the end time of the event `⟨payload, vs, vold⟩` to `ve`
    /// (removing it when `ve == vs`).
    Adjust {
        /// Payload of the event being adjusted.
        payload: P,
        /// Validity start of the event being adjusted.
        vs: Time,
        /// The event's current end time.
        vold: Time,
        /// The new end time (equal to `vs` to delete the event).
        ve: Time,
    },
    /// Progress punctuation: the TDB before this time is frozen.
    Stable(Time),
}

impl<P: Payload> Element<P> {
    /// Convenience constructor for an insert element.
    pub fn insert(payload: P, vs: impl Into<Time>, ve: impl Into<Time>) -> Element<P> {
        Element::Insert(Event::new(payload, vs, ve))
    }

    /// Convenience constructor for an adjust element.
    pub fn adjust(
        payload: P,
        vs: impl Into<Time>,
        vold: impl Into<Time>,
        ve: impl Into<Time>,
    ) -> Element<P> {
        Element::Adjust {
            payload,
            vs: vs.into(),
            vold: vold.into(),
            ve: ve.into(),
        }
    }

    /// Convenience constructor for a stable element.
    pub fn stable(t: impl Into<Time>) -> Element<P> {
        Element::Stable(t.into())
    }

    /// Whether this is punctuation rather than data.
    #[inline]
    pub fn is_stable(&self) -> bool {
        matches!(self, Element::Stable(_))
    }

    /// Whether this is an insert element.
    #[inline]
    pub fn is_insert(&self) -> bool {
        matches!(self, Element::Insert(_))
    }

    /// Whether this is an adjust element.
    #[inline]
    pub fn is_adjust(&self) -> bool {
        matches!(self, Element::Adjust { .. })
    }

    /// The `(Vs, Payload)` index key for data elements; `None` for `Stable`.
    pub fn key(&self) -> Option<(Time, &P)> {
        match self {
            Element::Insert(e) => Some((e.vs, &e.payload)),
            Element::Adjust { payload, vs, .. } => Some((*vs, payload)),
            Element::Stable(_) => None,
        }
    }
}

impl<P: std::fmt::Debug> std::fmt::Debug for Element<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Element::Insert(e) => {
                write!(f, "insert({:?}, {}, {})", e.payload, e.vs, e.ve)
            }
            Element::Adjust {
                payload,
                vs,
                vold,
                ve,
            } => write!(f, "adjust({payload:?}, {vs}, {vold}, {ve})"),
            Element::Stable(t) => write!(f, "stable({t})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_kinds() {
        let i: Element<&str> = Element::insert("A", 1, 5);
        let a: Element<&str> = Element::adjust("A", 1, 5, 9);
        let s: Element<&str> = Element::stable(7);
        assert!(i.is_insert() && !i.is_adjust() && !i.is_stable());
        assert!(a.is_adjust());
        assert!(s.is_stable());
    }

    #[test]
    fn key_of_elements() {
        let i: Element<&str> = Element::insert("A", 1, 5);
        assert_eq!(i.key(), Some((Time(1), &"A")));
        let a: Element<&str> = Element::adjust("B", 2, 5, 9);
        assert_eq!(a.key(), Some((Time(2), &"B")));
        let s: Element<&str> = Element::stable(7);
        assert_eq!(s.key(), None);
    }

    #[test]
    fn debug_format_matches_paper_syntax() {
        let i: Element<&str> = Element::insert("A", 6, 20);
        assert_eq!(format!("{i:?}"), "insert(\"A\", 6, 20)");
        let s: Element<&str> = Element::stable(Time::INFINITY);
        assert_eq!(format!("{s:?}"), "stable(∞)");
    }
}
