//! Freeze status of TDB events relative to a stable point (Section III-C).

use crate::time::Time;

/// How "frozen" an event `⟨p, Vs, Ve⟩` is under stable point `Vc`.
///
/// * **Fully frozen** (`Ve < Vc`): no future `adjust` can alter the event;
///   it is in every future version of the TDB.
/// * **Half frozen** (`Vs < Vc ≤ Ve`): some event `⟨p, Vs, V⟩` will be in the
///   TDB henceforth, but its end time may still move (to any `V ≥ Vc`).
/// * **Unfrozen** (`Vc ≤ Vs`): the event may still be removed entirely.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Freeze {
    /// The event can still be removed or arbitrarily adjusted.
    Unfrozen,
    /// The event's existence is fixed; only `Ve ≥ Vc` can change.
    HalfFrozen,
    /// The event is immutable.
    FullyFrozen,
}

impl Freeze {
    /// Classify `[vs, ve)` under stable point `stable`.
    #[inline]
    pub fn classify(vs: Time, ve: Time, stable: Time) -> Freeze {
        if ve < stable {
            Freeze::FullyFrozen
        } else if vs < stable {
            Freeze::HalfFrozen
        } else {
            Freeze::Unfrozen
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_boundaries() {
        // Paper Section III-C: HF iff Vs < Vc <= Ve, FF iff Ve < Vc.
        let (vs, ve) = (Time(10), Time(20));
        assert_eq!(Freeze::classify(vs, ve, Time(10)), Freeze::Unfrozen);
        assert_eq!(Freeze::classify(vs, ve, Time(11)), Freeze::HalfFrozen);
        assert_eq!(Freeze::classify(vs, ve, Time(20)), Freeze::HalfFrozen);
        assert_eq!(Freeze::classify(vs, ve, Time(21)), Freeze::FullyFrozen);
    }

    #[test]
    fn infinite_events_never_fully_freeze() {
        assert_eq!(
            Freeze::classify(Time(0), Time::INFINITY, Time::INFINITY),
            Freeze::HalfFrozen
        );
    }

    #[test]
    fn paper_section_3d_examples() {
        // I1 (last:14): ⟨A,2,16⟩ HF, ⟨B,3,10⟩ FF, ⟨C,4,18⟩ HF, ⟨D,15,20⟩ UF.
        let l = Time(14);
        assert_eq!(Freeze::classify(Time(2), Time(16), l), Freeze::HalfFrozen);
        assert_eq!(Freeze::classify(Time(3), Time(10), l), Freeze::FullyFrozen);
        assert_eq!(Freeze::classify(Time(4), Time(18), l), Freeze::HalfFrozen);
        assert_eq!(Freeze::classify(Time(15), Time(20), l), Freeze::Unfrozen);
    }
}
