//! Constructing the right LMerge variant for a stream class (Section IV-G).

use crate::api::LogicalMerge;
use crate::policy::MergePolicy;
use crate::{LMergeR0, LMergeR1, LMergeR2, LMergeR3, LMergeR4};
use lmerge_properties::{select as select_level, RLevel, StreamProperties};
use lmerge_temporal::Payload;

/// Instantiate the LMerge algorithm for a given restriction level.
///
/// R3 takes the whole `policy` (it is the only variant with output-policy
/// freedom), R4 its robustness guards; R0–R2 ignore it.
pub fn new_for_level<P: Payload>(
    level: RLevel,
    n_inputs: usize,
    policy: MergePolicy,
) -> Box<dyn LogicalMerge<P>> {
    match level {
        RLevel::R0 => Box::new(LMergeR0::new(n_inputs)),
        RLevel::R1 => Box::new(LMergeR1::new(n_inputs)),
        RLevel::R2 => Box::new(LMergeR2::new(n_inputs)),
        RLevel::R3 => Box::new(LMergeR3::with_policy(n_inputs, policy)),
        RLevel::R4 => Box::new(LMergeR4::with_robustness(n_inputs, policy.robustness)),
    }
}

/// Instantiate the cheapest sound LMerge algorithm for streams carrying the
/// given compile-time properties.
///
/// ```
/// use lmerge_core::{new_for_properties, MergePolicy};
/// use lmerge_properties::{RLevel, StreamProperties};
///
/// // Grouped aggregation over an ordered stream (paper scenario 5) → R2.
/// let lm = new_for_properties::<&str>(
///     StreamProperties::r2(),
///     4,
///     MergePolicy::paper_default(),
/// );
/// assert_eq!(lm.level(), RLevel::R2);
/// ```
pub fn new_for_properties<P: Payload>(
    props: StreamProperties,
    n_inputs: usize,
    policy: MergePolicy,
) -> Box<dyn LogicalMerge<P>> {
    new_for_level(select_level(props), n_inputs, policy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmerge_temporal::Element;
    use lmerge_temporal::StreamId;

    #[test]
    fn factory_matches_levels() {
        for level in RLevel::ALL {
            let lm = new_for_level::<&str>(level, 2, MergePolicy::default());
            assert_eq!(lm.level(), level);
        }
    }

    #[test]
    fn property_driven_construction() {
        let lm = new_for_properties::<&str>(StreamProperties::r2(), 3, MergePolicy::default());
        assert_eq!(lm.level(), RLevel::R2);
    }

    #[test]
    fn guarded_r4_from_the_factory_quarantines_a_laggard() {
        use crate::api::InputHealth;
        use crate::policy::RobustnessPolicy;
        let policy = MergePolicy {
            robustness: RobustnessPolicy::guarded(5, 1_000),
            ..MergePolicy::default()
        };
        let mut lm = new_for_level::<&str>(RLevel::R4, 2, policy);
        let mut out = Vec::new();
        lm.push(StreamId(1), &Element::stable(1), &mut out);
        lm.push(StreamId(0), &Element::stable(10), &mut out);
        assert_eq!(
            lm.input_health(StreamId(1)),
            InputHealth::Quarantined,
            "stable 1 trails 10 by more than the 5-unit margin"
        );
    }

    #[test]
    fn boxed_operator_is_usable() {
        let mut lm = new_for_level::<&str>(RLevel::R3, 2, MergePolicy::default());
        let mut out = Vec::new();
        lm.push(StreamId(0), &Element::insert("A", 1, 5), &mut out);
        lm.push(StreamId(0), &Element::stable(10), &mut out);
        assert_eq!(out.len(), 2);
    }
}
