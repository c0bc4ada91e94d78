//! Runtime verification that an element sequence satisfies a claimed
//! property vector.
//!
//! Stream properties are *claims*; the generator and the test suites use
//! this checker to ensure a stream labelled R1 (say) really is insert-only,
//! non-decreasing, and deterministic — so that algorithm-selection tests are
//! honest about what they feed each algorithm.

use crate::props::{Ordering, StreamProperties};
use lmerge_temporal::{Element, Payload, Time};
use std::collections::HashSet;

/// The first way in which a stream fell short of its claimed properties.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PropertyViolation {
    /// An `adjust` appeared in a stream claimed insert-only.
    AdjustInInsertOnly {
        /// Index of the offending element.
        at: usize,
    },
    /// `Vs` went backwards (claimed non-decreasing) or failed to strictly
    /// increase (claimed strictly increasing).
    OutOfOrder {
        /// Index of the offending element.
        at: usize,
        /// The previous data element's `Vs`.
        prev: Time,
        /// The offending element's `Vs`.
        vs: Time,
    },
    /// A duplicate `(Vs, Payload)` appeared in a stream claiming that key.
    DuplicateKey {
        /// Index of the offending element.
        at: usize,
    },
}

/// Verify `elements` against `claimed`, returning the first violation.
///
/// Deterministic tie order is a *cross-copy* property (the same order on
/// every physical copy) and cannot be checked on one sequence alone.
pub fn verify<P: Payload>(
    elements: &[Element<P>],
    claimed: StreamProperties,
) -> Result<(), PropertyViolation> {
    let mut last_vs = Time::MIN;
    let mut seen_keys: HashSet<(Time, P)> = HashSet::new();
    for (at, e) in elements.iter().enumerate() {
        match e {
            Element::Stable(_) => {}
            Element::Adjust { .. } if claimed.insert_only => {
                return Err(PropertyViolation::AdjustInInsertOnly { at });
            }
            _ => {
                let (vs, p) = e.key().expect("data element has a key");
                match claimed.ordering {
                    Ordering::StrictlyIncreasing if vs <= last_vs && last_vs != Time::MIN => {
                        return Err(PropertyViolation::OutOfOrder {
                            at,
                            prev: last_vs,
                            vs,
                        });
                    }
                    Ordering::NonDecreasing if vs < last_vs => {
                        return Err(PropertyViolation::OutOfOrder {
                            at,
                            prev: last_vs,
                            vs,
                        });
                    }
                    _ => {}
                }
                last_vs = last_vs.max(vs);
                if claimed.key_vs_payload && e.is_insert() && !seen_keys.insert((vs, p.clone())) {
                    return Err(PropertyViolation::DuplicateKey { at });
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    type E = Element<&'static str>;

    #[test]
    fn in_order_insert_only_passes_r0() {
        let s: Vec<E> = vec![
            Element::insert("A", 1, 5),
            Element::insert("B", 2, 6),
            Element::stable(3),
        ];
        assert_eq!(verify(&s, StreamProperties::r0()), Ok(()));
    }

    #[test]
    fn duplicate_timestamp_fails_r0_passes_r2() {
        let s: Vec<E> = vec![Element::insert("A", 1, 5), Element::insert("B", 1, 6)];
        assert!(matches!(
            verify(&s, StreamProperties::r0()),
            Err(PropertyViolation::OutOfOrder { .. })
        ));
        assert_eq!(verify(&s, StreamProperties::r2()), Ok(()));
    }

    #[test]
    fn adjust_fails_insert_only() {
        let s: Vec<E> = vec![Element::insert("A", 1, 5), Element::adjust("A", 1, 5, 7)];
        assert!(matches!(
            verify(&s, StreamProperties::r1()),
            Err(PropertyViolation::AdjustInInsertOnly { at: 1 })
        ));
        assert_eq!(verify(&s, StreamProperties::r3()), Ok(()));
    }

    #[test]
    fn regression_fails_non_decreasing() {
        let s: Vec<E> = vec![Element::insert("A", 5, 9), Element::insert("B", 3, 6)];
        assert!(matches!(
            verify(&s, StreamProperties::r2()),
            Err(PropertyViolation::OutOfOrder { .. })
        ));
        assert_eq!(verify(&s, StreamProperties::r3()), Ok(()));
    }

    #[test]
    fn duplicate_key_detected() {
        let s: Vec<E> = vec![Element::insert("A", 1, 5), Element::insert("A", 1, 9)];
        assert!(matches!(
            verify(&s, StreamProperties::r3()),
            Err(PropertyViolation::DuplicateKey { at: 1 })
        ));
        assert_eq!(verify(&s, StreamProperties::unconstrained()), Ok(()));
    }

    #[test]
    fn stable_elements_are_ignored_by_ordering() {
        let s: Vec<E> = vec![
            Element::insert("A", 5, 9),
            Element::stable(1),
            Element::insert("B", 6, 9),
        ];
        assert_eq!(verify(&s, StreamProperties::r0()), Ok(()));
    }
}
