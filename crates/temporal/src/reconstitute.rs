//! The reconstitution function `tdb(S, i)` (Section III-A).
//!
//! A [`Reconstituter`] consumes physical stream elements one at a time,
//! maintains the running TDB instance and the stream's stable point, and
//! enforces the well-formedness constraints that `stable()` punctuation
//! imposes on later elements. It is the semantic ground truth against which
//! all LMerge algorithms are tested.

use crate::element::Element;
use crate::payload::Payload;
use crate::tdb::{NoSuchEvent, Tdb};
use crate::time::Time;

/// A violation of physical-stream well-formedness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReconstituteError {
    /// `insert` with `Vs` strictly before the current stable point.
    InsertBeforeStable {
        /// The offending insert's validity start.
        vs: Time,
        /// The stream's stable point at that moment.
        stable: Time,
    },
    /// `adjust` whose `Vold` or new `Ve` falls before the stable point.
    AdjustBeforeStable {
        /// Old end time named by the adjust.
        vold: Time,
        /// New end time named by the adjust.
        ve: Time,
        /// The stream's stable point at that moment.
        stable: Time,
    },
    /// `adjust` that names an event absent from the TDB.
    NoSuchEvent(NoSuchEvent),
    /// `stable` punctuation moving backwards is permitted by the paper
    /// (it is simply redundant), but an *insert with an empty interval* is not.
    EmptyInterval {
        /// The degenerate interval's start (equal to its end).
        vs: Time,
    },
}

impl std::fmt::Display for ReconstituteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReconstituteError::InsertBeforeStable { vs, stable } => {
                write!(f, "insert with Vs={vs} before stable point {stable}")
            }
            ReconstituteError::AdjustBeforeStable { vold, ve, stable } => {
                write!(
                    f,
                    "adjust with Vold={vold}/Ve={ve} violating stable point {stable}"
                )
            }
            ReconstituteError::NoSuchEvent(e) => write!(f, "{e}"),
            ReconstituteError::EmptyInterval { vs } => {
                write!(f, "insert with empty interval at Vs={vs}")
            }
        }
    }
}

impl std::error::Error for ReconstituteError {}

impl From<NoSuchEvent> for ReconstituteError {
    fn from(e: NoSuchEvent) -> Self {
        ReconstituteError::NoSuchEvent(e)
    }
}

/// Incremental reconstitution of a physical stream into its TDB.
///
/// ```
/// use lmerge_temporal::{Element, Reconstituter, Time};
///
/// let mut r: Reconstituter<&str> = Reconstituter::new();
/// r.apply(&Element::insert("A", 6, 20)).unwrap();
/// r.apply(&Element::adjust("A", 6, 20, 25)).unwrap();
/// r.apply(&Element::stable(30)).unwrap();
/// assert_eq!(r.tdb().count(&"A", Time(6), Time(25)), 1);
/// // The punctuation now forbids contradicting what is frozen:
/// assert!(r.apply(&Element::insert("B", 3, 9)).is_err());
/// ```
#[derive(Clone, Debug, Default)]
pub struct Reconstituter<P: Payload> {
    tdb: Tdb<P>,
    stable: Time,
}

impl<P: Payload> Reconstituter<P> {
    /// A reconstituter with an empty TDB and stable point `−∞`.
    pub fn new() -> Reconstituter<P> {
        Reconstituter {
            tdb: Tdb::new(),
            stable: Time::MIN,
        }
    }

    /// Apply one element, validating against the current stable point.
    pub fn apply(&mut self, element: &Element<P>) -> Result<(), ReconstituteError> {
        match element {
            Element::Insert(e) => {
                if e.vs >= e.ve {
                    return Err(ReconstituteError::EmptyInterval { vs: e.vs });
                }
                if e.vs < self.stable {
                    return Err(ReconstituteError::InsertBeforeStable {
                        vs: e.vs,
                        stable: self.stable,
                    });
                }
                self.tdb.insert(e.clone());
            }
            Element::Adjust {
                payload,
                vs,
                vold,
                ve,
            } => {
                if *vold < self.stable
                    || (*ve < self.stable && ve != vs)
                    || (ve == vs && *vs < self.stable)
                {
                    return Err(ReconstituteError::AdjustBeforeStable {
                        vold: *vold,
                        ve: *ve,
                        stable: self.stable,
                    });
                }
                self.tdb.adjust(payload, *vs, *vold, *ve)?;
            }
            Element::Stable(t) => {
                // A stable that does not advance is redundant but legal.
                self.stable = self.stable.max(*t);
            }
        }
        Ok(())
    }

    /// Apply a sequence of elements, stopping at the first violation.
    pub fn apply_all<'a>(
        &mut self,
        elements: impl IntoIterator<Item = &'a Element<P>>,
    ) -> Result<(), ReconstituteError>
    where
        P: 'a,
    {
        for e in elements {
            self.apply(e)?;
        }
        Ok(())
    }

    /// The current TDB instance (`tdb(S, i)` after `i` applied elements).
    pub fn tdb(&self) -> &Tdb<P> {
        &self.tdb
    }

    /// Consume the reconstituter, returning the TDB.
    pub fn into_tdb(self) -> Tdb<P> {
        self.tdb
    }

    /// The stream's current stable point (`−∞` before any `stable()`).
    pub fn stable(&self) -> Time {
        self.stable
    }
}

/// Reconstitute a complete prefix: the paper's `tdb(S, i)` with `i = s.len()`.
pub fn tdb_of<P: Payload>(elements: &[Element<P>]) -> Result<Tdb<P>, ReconstituteError> {
    let mut r = Reconstituter::new();
    r.apply_all(elements)?;
    Ok(r.into_tdb())
}

/// Whether two stream prefixes are equivalent (`S[i] ≡ U[j]`, Section III-A):
/// both reconstitute, and to the same TDB.
pub fn equivalent<P: Payload>(s: &[Element<P>], u: &[Element<P>]) -> bool {
    match (tdb_of(s), tdb_of(u)) {
        (Ok(a), Ok(b)) => a == b,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type E = Element<&'static str>;

    #[test]
    fn example5_adjust_chain_equals_single_insert() {
        // insert(A,6,20), adjust(A,6,20,30), adjust(A,6,30,25) ≡ insert(A,6,25)
        let s: Vec<E> = vec![
            Element::insert("A", 6, 20),
            Element::adjust("A", 6, 20, 30),
            Element::adjust("A", 6, 30, 25),
        ];
        let u: Vec<E> = vec![Element::insert("A", 6, 25)];
        assert!(equivalent(&s, &u));
    }

    #[test]
    fn stable_blocks_late_insert() {
        let mut r = Reconstituter::new();
        r.apply(&E::stable(10)).unwrap();
        let err = r.apply(&E::insert("A", 5, 20)).unwrap_err();
        assert!(matches!(err, ReconstituteError::InsertBeforeStable { .. }));
    }

    #[test]
    fn stable_allows_insert_at_exactly_stable_point() {
        let mut r = Reconstituter::new();
        r.apply(&E::stable(10)).unwrap();
        r.apply(&E::insert("A", 10, 20)).unwrap();
        assert_eq!(r.tdb().len(), 1);
    }

    #[test]
    fn stable_blocks_adjust_with_frozen_vold() {
        let mut r = Reconstituter::new();
        r.apply(&E::insert("A", 5, 8)).unwrap();
        r.apply(&E::stable(10)).unwrap();
        // Vold = 8 < 10: the event is fully frozen, adjusting is illegal.
        let err = r.apply(&E::adjust("A", 5, 8, 12)).unwrap_err();
        assert!(matches!(err, ReconstituteError::AdjustBeforeStable { .. }));
    }

    #[test]
    fn stable_blocks_adjust_shrinking_below_stable() {
        let mut r = Reconstituter::new();
        r.apply(&E::insert("A", 5, 20)).unwrap();
        r.apply(&E::stable(10)).unwrap();
        // New Ve = 8 < 10 would contradict the punctuation.
        let err = r.apply(&E::adjust("A", 5, 20, 8)).unwrap_err();
        assert!(matches!(err, ReconstituteError::AdjustBeforeStable { .. }));
    }

    #[test]
    fn half_frozen_event_can_still_extend() {
        let mut r = Reconstituter::new();
        r.apply(&E::insert("A", 5, 20)).unwrap();
        r.apply(&E::stable(10)).unwrap();
        r.apply(&E::adjust("A", 5, 20, 30)).unwrap();
        assert_eq!(r.tdb().count(&"A", Time(5), Time(30)), 1);
    }

    #[test]
    fn cancel_unfrozen_event() {
        let mut r = Reconstituter::new();
        r.apply(&E::insert("A", 15, 20)).unwrap();
        r.apply(&E::stable(10)).unwrap();
        // Vs = 15 >= stable: removal (ve == vs) is legal.
        r.apply(&E::adjust("A", 15, 20, 15)).unwrap();
        assert!(r.tdb().is_empty());
    }

    #[test]
    fn cancel_half_frozen_event_is_illegal() {
        let mut r = Reconstituter::new();
        r.apply(&E::insert("A", 5, 20)).unwrap();
        r.apply(&E::stable(10)).unwrap();
        let err = r.apply(&E::adjust("A", 5, 20, 5)).unwrap_err();
        assert!(matches!(err, ReconstituteError::AdjustBeforeStable { .. }));
    }

    #[test]
    fn regressing_stable_is_redundant_not_an_error() {
        let mut r: Reconstituter<&str> = Reconstituter::new();
        r.apply(&E::stable(10)).unwrap();
        r.apply(&E::stable(5)).unwrap();
        assert_eq!(r.stable(), Time(10));
    }

    #[test]
    fn different_orders_are_equivalent() {
        let s: Vec<E> = vec![
            Element::insert("A", 1, 4),
            Element::insert("B", 2, 5),
            Element::stable(6),
        ];
        let u: Vec<E> = vec![
            Element::insert("B", 2, 5),
            Element::insert("A", 1, 4),
            Element::stable(6),
        ];
        assert!(equivalent(&s, &u));
    }

    #[test]
    fn non_equivalent_streams_detected() {
        let s: Vec<E> = vec![Element::insert("A", 1, 4)];
        let u: Vec<E> = vec![Element::insert("A", 1, 5)];
        assert!(!equivalent(&s, &u));
    }
}
