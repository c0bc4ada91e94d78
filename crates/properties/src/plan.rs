//! Logical-plan description and property inference (Section IV-G).
//!
//! The paper derives stream properties by compile-time analysis of the query
//! plan feeding each LMerge input. This module models just enough of a plan
//! to express the paper's six illustrative scenarios and infers the property
//! vector of the plan's output stream.

use crate::props::{Ordering, StreamProperties};

/// A node of a logical query plan, describing the stream it produces.
#[derive(Clone, Debug)]
pub enum PlanNode {
    /// A data source publishing its own properties ("every input stream
    /// publishes properties that indicate whether the stream is ordered,
    /// has adjust() elements, or has duplicate timestamps").
    Source(StreamProperties),
    /// Selection: drops events, changes nothing else.
    Filter(Box<PlanNode>),
    /// Projection / payload mapping. `injective` records whether distinct
    /// input payloads map to distinct output payloads (preserves keys).
    Project {
        /// Upstream plan.
        input: Box<PlanNode>,
        /// Whether the mapping is injective on payloads.
        injective: bool,
    },
    /// A windowed aggregate (e.g. count, sum): one output event per window.
    ///
    /// * Over an *ordered* input, a single-valued aggregate emits one event
    ///   per strictly increasing timestamp → R0 (paper scenario 3).
    /// * `multi_valued` (e.g. Top-k) emits several events per timestamp in
    ///   deterministic rank order → R1 (scenario 4).
    /// * `grouped` emits one event per group per timestamp; tie order across
    ///   groups is nondeterministic but `(Vs, Payload)` is a key → R2 over
    ///   ordered inputs (scenario 5), R3 over disordered ones (scenario 6).
    /// * Over a disordered input the aggregate must revise earlier output,
    ///   so the result carries `adjust` elements.
    Aggregate {
        /// Upstream plan.
        input: Box<PlanNode>,
        /// Grouped aggregation (e.g. per machine id).
        grouped: bool,
        /// Multi-valued aggregate such as Top-k.
        multi_valued: bool,
    },
    /// The reordering/cleansing operator: buffers a disordered stream and
    /// releases fully frozen elements in deterministic timestamp order
    /// (paper scenario 2 and Section VI-D).
    Cleanse(Box<PlanNode>),
    /// Union of several streams: interleaving is nondeterministic.
    Union(Vec<PlanNode>),
    /// Temporal join of two streams.
    Join(Box<PlanNode>, Box<PlanNode>),
    /// Lifetime alteration (e.g. clipping every event to a fixed duration);
    /// leaves `Vs` and payloads alone.
    AlterLifetime(Box<PlanNode>),
}

impl PlanNode {
    /// A source with the given properties.
    pub fn source(props: StreamProperties) -> PlanNode {
        PlanNode::Source(props)
    }

    /// Wrap in a filter.
    #[must_use]
    pub fn filter(self) -> PlanNode {
        PlanNode::Filter(Box::new(self))
    }

    /// Wrap in an aggregate.
    #[must_use]
    pub fn aggregate(self, grouped: bool, multi_valued: bool) -> PlanNode {
        PlanNode::Aggregate {
            input: Box::new(self),
            grouped,
            multi_valued,
        }
    }

    /// Wrap in a cleanse (reorder) operator.
    #[must_use]
    pub fn cleanse(self) -> PlanNode {
        PlanNode::Cleanse(Box::new(self))
    }
}

/// Infer the property vector of the stream a plan produces.
pub fn infer(plan: &PlanNode) -> StreamProperties {
    match plan {
        PlanNode::Source(p) => *p,
        // Filtering preserves every property.
        PlanNode::Filter(input) => infer(input),
        PlanNode::Project { input, injective } => {
            let mut p = infer(input);
            if !injective {
                // Distinct events may collapse onto the same payload:
                // the (Vs, Payload) key and deterministic tie order die.
                p.key_vs_payload = false;
                p.deterministic_ties = false;
            }
            p
        }
        PlanNode::Aggregate {
            input,
            grouped,
            multi_valued,
        } => {
            let input_props = infer(input);
            let in_order = input_props.ordering != Ordering::None && input_props.insert_only;
            if in_order {
                if *multi_valued {
                    // Scenario 4: Top-k over ordered input — duplicate
                    // timestamps in deterministic rank order (R1); the same
                    // payload can recur across ranks, so no key.
                    StreamProperties {
                        insert_only: true,
                        ordering: Ordering::NonDecreasing,
                        deterministic_ties: true,
                        key_vs_payload: false,
                    }
                } else if *grouped {
                    // Scenario 5: grouped aggregation over ordered input —
                    // (Vs, Payload) is a key (group id ⊂ payload) but tie
                    // order across groups is nondeterministic (R2).
                    StreamProperties {
                        insert_only: true,
                        ordering: Ordering::NonDecreasing,
                        deterministic_ties: false,
                        key_vs_payload: true,
                    }
                } else {
                    // Scenario 3: windowed count over ordered input — one
                    // event per strictly increasing timestamp (R0).
                    StreamProperties::r0()
                }
            } else {
                // Disordered (or revising) input: the aggregate revises its
                // earlier output with adjust elements (the paper's
                // aggressive aggregate), so insert-only and ordering are
                // lost. Grouping or single-valuedness keeps (Vs, Payload) a
                // key → R3 (scenario 6); multi-valued keeps duplicates → R4.
                StreamProperties {
                    insert_only: false,
                    ordering: Ordering::None,
                    deterministic_ties: false,
                    key_vs_payload: !*multi_valued,
                }
            }
        }
        PlanNode::Cleanse(input) => {
            // Scenario 2: Cleanse buffers until stable and releases in
            // deterministic (timestamp, payload) order; output is
            // insert-only and non-decreasing, keeping any key the input had.
            let mut p = infer(input);
            p.insert_only = true;
            p.ordering = Ordering::NonDecreasing;
            p.deterministic_ties = true;
            p
        }
        PlanNode::Union(inputs) => {
            // Interleaving is nondeterministic; duplicates across branches
            // are possible, and ordering across branches is lost.
            let mut p = inputs
                .iter()
                .map(infer)
                .reduce(StreamProperties::meet)
                .unwrap_or_else(StreamProperties::unconstrained);
            p.ordering = Ordering::None;
            p.deterministic_ties = false;
            p.key_vs_payload = false;
            p
        }
        PlanNode::Join(l, r) => {
            // A temporal join clips lifetimes as matches resolve, producing
            // adjusts; output order depends on arrival interleaving.
            let p = infer(l).meet(infer(r));
            StreamProperties {
                insert_only: false,
                ordering: Ordering::None,
                deterministic_ties: false,
                // Join results concatenate payloads: distinct pairs stay
                // distinct only if both sides had keys.
                key_vs_payload: p.key_vs_payload,
            }
        }
        PlanNode::AlterLifetime(input) => {
            // Vs and payload untouched; only Ve changes at compile time, so
            // insert-only and ordering and keys survive.
            infer(input)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::props::{select, RLevel};

    fn ordered_source() -> PlanNode {
        PlanNode::source(StreamProperties::r0())
    }

    fn disordered_source() -> PlanNode {
        PlanNode::source(StreamProperties {
            insert_only: true,
            ordering: Ordering::None,
            deterministic_ties: false,
            key_vs_payload: false,
        })
    }

    #[test]
    fn scenario1_source_properties_pass_through() {
        assert_eq!(select(infer(&ordered_source())), RLevel::R0);
        assert_eq!(select(infer(&disordered_source())), RLevel::R4);
    }

    #[test]
    fn scenario2_cleanse_enables_r1() {
        let plan = disordered_source().cleanse();
        assert_eq!(select(infer(&plan)), RLevel::R1);
    }

    #[test]
    fn scenario3_windowed_count_over_ordered_is_r0() {
        let plan = ordered_source().aggregate(false, false);
        assert_eq!(select(infer(&plan)), RLevel::R0);
    }

    #[test]
    fn scenario4_topk_over_ordered_is_r1() {
        let plan = ordered_source().aggregate(false, true);
        assert_eq!(select(infer(&plan)), RLevel::R1);
    }

    #[test]
    fn scenario5_grouped_agg_over_ordered_is_r2() {
        let plan = ordered_source().aggregate(true, false);
        assert_eq!(select(infer(&plan)), RLevel::R2);
    }

    #[test]
    fn scenario6_grouped_agg_over_disordered_is_r3() {
        let plan = disordered_source().aggregate(true, false);
        assert_eq!(select(infer(&plan)), RLevel::R3);
    }

    #[test]
    fn filter_preserves_properties() {
        let plan = ordered_source().filter();
        assert_eq!(infer(&plan), StreamProperties::r0());
    }

    #[test]
    fn noninjective_projection_drops_key() {
        let project = |injective| PlanNode::Project {
            input: Box::new(ordered_source().aggregate(true, false)),
            injective,
        };
        let p = infer(&project(false));
        assert!(!p.key_vs_payload);
        assert_eq!(select(p), RLevel::R4);
        assert_eq!(select(infer(&project(true))), RLevel::R2);
    }

    #[test]
    fn union_loses_order_and_key() {
        let plan = PlanNode::Union(vec![ordered_source(), ordered_source()]);
        let p = infer(&plan);
        assert_eq!(p.ordering, Ordering::None);
        assert!(!p.key_vs_payload);
        assert!(
            p.insert_only,
            "union of insert-only inputs stays insert-only"
        );
        assert_eq!(select(p), RLevel::R4);
    }

    #[test]
    fn join_produces_adjusts() {
        let plan = PlanNode::Join(Box::new(ordered_source()), Box::new(ordered_source()));
        let p = infer(&plan);
        assert!(!p.insert_only);
        assert_eq!(select(p), RLevel::R3, "both sides keyed → key survives");
    }

    #[test]
    fn multi_valued_agg_over_disordered_is_r4() {
        let plan = disordered_source().aggregate(false, true);
        assert_eq!(select(infer(&plan)), RLevel::R4);
    }

    #[test]
    fn alter_lifetime_is_transparent() {
        let plan = PlanNode::AlterLifetime(Box::new(ordered_source().aggregate(true, false)));
        assert_eq!(select(infer(&plan)), RLevel::R2);
    }

    #[test]
    fn cleanse_after_aggregate_restores_r1() {
        // The C+LMR1 configuration of Section VI-D: disordered input through
        // an aggregate (R3 output) then Cleanse at each LMerge input.
        let plan = disordered_source().aggregate(true, false).cleanse();
        assert_eq!(select(infer(&plan)), RLevel::R1);
    }
}
