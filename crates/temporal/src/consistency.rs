//! Mutual consistency of stream prefixes (Section III-B).
//!
//! Prefixes `{I1[k1], …, In[kn]}` are *mutually consistent* when each can be
//! extended (and, in general, prefixed — we assume common starts, as the
//! paper does "for simplicity in the sequel") to streams that are all
//! equivalent. Deciding this in full generality requires quantifying over
//! extensions; for the R3/R4 stream classes the condition collapses to a
//! checkable one: every prefix must correctly *track a common reference
//! TDB* — everything a prefix has frozen must agree with the reference, and
//! everything the reference settles before the prefix's stable point must be
//! present in the prefix.
//!
//! The workload generator always derives divergent inputs from an explicit
//! reference stream, so tests validate generated inputs with
//! [`consistent_with_reference`].

use crate::compat::{check_r4, StreamView, Violation};
use crate::payload::Payload;
use crate::tdb::Tdb;

/// Whether prefix `view` is a correct partial presentation of `reference`
/// (the final TDB of the paper's "reference stream").
///
/// Concretely, with `L` = `view.stable`:
/// * every event of `reference` with `Ve < L` appears in `view` with the
///   same multiplicity (it is fully frozen, so the prefix must have it
///   exactly right already);
/// * for every `(Vs, Payload)` with `Vs < L`, the number of `view` events
///   equals the number of `reference` events (half-frozen existence is
///   settled, only end times may still move — and only to values `≥ L`);
/// * events with `Vs ≥ L` are unconstrained (still unfrozen in the prefix).
pub fn consistent_with_reference<P: Payload>(
    view: StreamView<'_, P>,
    reference: &Tdb<P>,
) -> Result<(), Violation<P>> {
    // This is exactly the R4 tracking condition with the reference playing
    // the role of a fully-stable leading input.
    let max = crate::time::Time::INFINITY;
    let reference_view = StreamView::new(reference, max);
    check_r4(&[reference_view], &view)
}

/// Whether complete streams are equivalent: all reconstitute to equal TDBs
/// (`S ≡ U`, Section III-A). This is the end-state check used after a merge
/// run finishes.
pub fn all_equivalent<P: Payload>(tdbs: &[&Tdb<P>]) -> bool {
    tdbs.windows(2).all(|w| w[0] == w[1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Time;
    use crate::Event;

    fn reference() -> Tdb<&'static str> {
        [
            Event::new("A", 2, 16),
            Event::new("B", 3, 10),
            Event::new("C", 4, 18),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn prefix_tracking_reference_is_consistent() {
        // A prefix stable to 11 that has B exactly and A/C half frozen with
        // provisional ends.
        let r = reference();
        let t: Tdb<&str> = [
            Event::new("A", 2, 12),
            Event::new("B", 3, 10),
            Event::new("C", 4, 30),
        ]
        .into_iter()
        .collect();
        let v = StreamView::new(&t, Time(11));
        assert_eq!(consistent_with_reference(v, &r), Ok(()));
    }

    #[test]
    fn prefix_missing_frozen_event_is_inconsistent() {
        let r = reference();
        let t: Tdb<&str> = [Event::new("A", 2, 16), Event::new("C", 4, 18)]
            .into_iter()
            .collect();
        // Stable 11 > B's Ve = 10: B must be present exactly.
        let v = StreamView::new(&t, Time(11));
        assert!(consistent_with_reference(v, &r).is_err());
    }

    #[test]
    fn prefix_with_wrong_frozen_end_is_inconsistent() {
        let r = reference();
        let t: Tdb<&str> = [
            Event::new("A", 2, 16),
            Event::new("B", 3, 9), // reference says [3, 10)
            Event::new("C", 4, 18),
        ]
        .into_iter()
        .collect();
        let v = StreamView::new(&t, Time(11));
        assert!(consistent_with_reference(v, &r).is_err());
    }

    #[test]
    fn unstable_prefix_is_trivially_consistent() {
        let r = reference();
        let t: Tdb<&str> = Tdb::new();
        let v = StreamView::new(&t, Time::MIN);
        assert_eq!(consistent_with_reference(v, &r), Ok(()));
    }

    #[test]
    fn spurious_unfrozen_event_is_allowed() {
        // An event the reference lacks, but with Vs beyond the prefix's
        // stable point — it can still be cancelled.
        let r = reference();
        let t: Tdb<&str> = [Event::new("Z", 50, 60)].into_iter().collect();
        // Stable point 2 ≤ every reference Vs, so nothing is required yet and
        // the spurious Z (Vs = 50 ≥ 2) is still removable.
        let v = StreamView::new(&t, Time(2));
        assert_eq!(consistent_with_reference(v, &r), Ok(()));
    }

    #[test]
    fn spurious_half_frozen_event_is_inconsistent() {
        let r = reference();
        let t: Tdb<&str> = [Event::new("Z", 1, 60)].into_iter().collect();
        // Stable 5 > Vs 1: Z's existence is now settled but wrong.
        let v = StreamView::new(&t, Time(5));
        assert!(consistent_with_reference(v, &r).is_err());
    }

    #[test]
    fn all_equivalent_checks_tdb_equality() {
        let a = reference();
        let b = reference();
        let c: Tdb<&str> = Tdb::new();
        assert!(all_equivalent(&[&a, &b]));
        assert!(!all_equivalent(&[&a, &c]));
        assert!(all_equivalent(&[&a]));
        assert!(all_equivalent::<&str>(&[]));
    }
}
