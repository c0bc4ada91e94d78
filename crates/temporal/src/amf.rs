//! The `a`/`m`/`f` element model of the paper's Example 1, with a lossless
//! conversion into the primary StreamInsight model.
//!
//! * `a(value, start, end)` adds a new event.
//! * `m(value, start, newEnd)` modifies the existing event with that value
//!   and start to have a new end time.
//! * `f(time)` finalizes (freezes from further modification) every event
//!   whose current end is earlier than `time` — and, like `stable`, promises
//!   no new events starting before `time`.
//!
//! Unlike StreamInsight's `adjust`, `m` does not carry the old end time, so
//! conversion requires tracking the current end of each `(value, start)`.

use crate::element::Element;
use crate::payload::Payload;
use crate::time::Time;
use std::collections::HashMap;

/// An element in the `a`/`m`/`f` model.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Amf<P> {
    /// `a(value, start, end)`: add a new event.
    Add {
        /// Payload value.
        value: P,
        /// Validity start.
        start: Time,
        /// Validity end (may be `∞`).
        end: Time,
    },
    /// `m(value, start, newEnd)`: modify an existing event's end time.
    Modify {
        /// Payload value of the event being modified.
        value: P,
        /// Validity start of the event being modified.
        start: Time,
        /// The new end time.
        new_end: Time,
    },
    /// `f(time)`: finalize everything ending before `time`.
    Finalize(Time),
}

impl<P: Payload> Amf<P> {
    /// `a(value, start, end)`.
    pub fn a(value: P, start: impl Into<Time>, end: impl Into<Time>) -> Amf<P> {
        Amf::Add {
            value,
            start: start.into(),
            end: end.into(),
        }
    }

    /// `m(value, start, new_end)`.
    pub fn m(value: P, start: impl Into<Time>, new_end: impl Into<Time>) -> Amf<P> {
        Amf::Modify {
            value,
            start: start.into(),
            new_end: new_end.into(),
        }
    }

    /// `f(time)`.
    pub fn f(time: impl Into<Time>) -> Amf<P> {
        Amf::Finalize(time.into())
    }
}

/// Error converting an `a`/`m`/`f` stream: a `m` that names no known event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownModifyTarget {
    /// The `start` the `m` element named.
    pub start: Time,
}

impl std::fmt::Display for UnknownModifyTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "m() names unknown event with start {}", self.start)
    }
}

impl std::error::Error for UnknownModifyTarget {}

/// Stateful converter from the `a`/`m`/`f` model to the StreamInsight model.
///
/// `m` lacks the old end time that `adjust` requires, so the converter keeps
/// the current end of every `(value, start)` it has seen. Entries whose end
/// is fully frozen by an `f()` are dropped, bounding the state exactly as
/// punctuation bounds operator state in the engine.
#[derive(Debug, Default)]
pub struct AmfConverter<P: Payload> {
    current_end: HashMap<(Time, P), Time>,
    finalized: Time,
}

impl<P: Payload> AmfConverter<P> {
    /// A converter with no history.
    pub fn new() -> AmfConverter<P> {
        AmfConverter {
            current_end: HashMap::new(),
            finalized: Time::MIN,
        }
    }

    /// Convert one element, appending the StreamInsight equivalents to `out`.
    pub fn convert(
        &mut self,
        elem: &Amf<P>,
        out: &mut Vec<Element<P>>,
    ) -> Result<(), UnknownModifyTarget> {
        match elem {
            Amf::Add { value, start, end } => {
                self.current_end.insert((*start, value.clone()), *end);
                out.push(Element::insert(value.clone(), *start, *end));
            }
            Amf::Modify {
                value,
                start,
                new_end,
            } => {
                let key = (*start, value.clone());
                let Some(old) = self.current_end.get_mut(&key) else {
                    return Err(UnknownModifyTarget { start: *start });
                };
                let vold = *old;
                *old = *new_end;
                out.push(Element::adjust(value.clone(), *start, vold, *new_end));
            }
            Amf::Finalize(t) => {
                self.finalized = self.finalized.max(*t);
                let fin = self.finalized;
                self.current_end.retain(|_, ve| *ve >= fin);
                out.push(Element::Stable(*t));
            }
        }
        Ok(())
    }

    /// Convert a whole stream prefix.
    pub fn convert_all(
        &mut self,
        elems: &[Amf<P>],
    ) -> Result<Vec<Element<P>>, UnknownModifyTarget> {
        let mut out = Vec::with_capacity(elems.len());
        for e in elems {
            self.convert(e, &mut out)?;
        }
        Ok(out)
    }
}

/// Convert a complete `a`/`m`/`f` stream into StreamInsight elements.
pub fn to_streaminsight<P: Payload>(
    elems: &[Amf<P>],
) -> Result<Vec<Element<P>>, UnknownModifyTarget> {
    AmfConverter::new().convert_all(elems)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reconstitute::{equivalent, tdb_of};
    use crate::tdb::Tdb;
    use crate::Event;

    /// The two physical streams of the paper's Table I.
    fn phy1() -> Vec<Amf<&'static str>> {
        vec![
            Amf::a("B", 8, Time::INFINITY),
            Amf::a("A", 6, 12),
            Amf::m("B", 8, 10),
            Amf::f(11),
            Amf::f(Time::INFINITY),
        ]
    }

    fn phy2() -> Vec<Amf<&'static str>> {
        vec![
            Amf::a("A", 6, 7),
            Amf::a("B", 8, 15),
            Amf::m("A", 6, 12),
            Amf::m("B", 8, 10),
            Amf::f(Time::INFINITY),
        ]
    }

    #[test]
    fn table1_both_streams_reconstitute_to_the_same_tdb() {
        let s1 = to_streaminsight(&phy1()).unwrap();
        let s2 = to_streaminsight(&phy2()).unwrap();
        let expected: Tdb<&str> = [Event::new("A", 6, 12), Event::new("B", 8, 10)]
            .into_iter()
            .collect();
        assert_eq!(tdb_of(&s1).unwrap(), expected);
        assert_eq!(tdb_of(&s2).unwrap(), expected);
        assert!(equivalent(&s1, &s2));
    }

    #[test]
    fn table1_prefixes_are_not_equivalent_but_converge() {
        let s1 = to_streaminsight(&phy1()).unwrap();
        let s2 = to_streaminsight(&phy2()).unwrap();
        // After two elements each, the TDBs differ (compatible, not equal).
        assert_ne!(tdb_of(&s1[..2]).unwrap(), tdb_of(&s2[..2]).unwrap());
        assert_eq!(tdb_of(&s1).unwrap(), tdb_of(&s2).unwrap());
    }

    #[test]
    fn modify_unknown_event_errors() {
        let r = to_streaminsight(&[Amf::m("X", 3, 9)]);
        assert_eq!(r.unwrap_err(), UnknownModifyTarget { start: Time(3) });
    }

    #[test]
    fn finalize_purges_converter_state() {
        let mut c = AmfConverter::new();
        let mut out = Vec::new();
        c.convert(&Amf::a("A", 1, 5), &mut out).unwrap();
        c.convert(&Amf::a("B", 2, 20), &mut out).unwrap();
        assert_eq!(c.current_end.len(), 2);
        c.convert(&Amf::f(10), &mut out).unwrap();
        // A (end 5 < 10) is fully frozen and forgotten; B remains adjustable.
        assert_eq!(c.current_end.len(), 1);
    }

    #[test]
    fn converted_stream_is_well_formed() {
        // The conversion of a legal a/m/f stream must pass strict
        // StreamInsight validation (stable constraints).
        let s1 = to_streaminsight(&phy1()).unwrap();
        assert!(tdb_of(&s1).is_ok());
    }
}
