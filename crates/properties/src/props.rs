//! The stream property vector and the R0–R4 restriction spectrum.

/// How `Vs` timestamps progress along the physical stream.
#[derive(Clone, Copy, PartialEq, Eq, Debug, PartialOrd, Ord, Hash)]
pub enum Ordering {
    /// Strictly increasing `Vs`: no duplicate timestamps at all.
    StrictlyIncreasing,
    /// Non-decreasing `Vs`: duplicate timestamps possible.
    NonDecreasing,
    /// No ordering guarantee beyond what `stable()` punctuation imposes.
    None,
}

/// Compile-time properties of a physical stream (Section III-C).
///
/// The default ([`StreamProperties::unconstrained`]) claims nothing, which
/// selects the fully general R4 algorithm.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct StreamProperties {
    /// Only `insert` and `stable` elements appear (no revisions).
    pub insert_only: bool,
    /// Timestamp ordering of data elements.
    pub ordering: Ordering,
    /// Among elements with equal `Vs`, the order is deterministic — the same
    /// on every physical copy of the stream (e.g. Top-k rank order).
    pub deterministic_ties: bool,
    /// `(Vs, Payload)` is a key of every prefix TDB (no duplicate events).
    pub key_vs_payload: bool,
}

impl StreamProperties {
    /// No guarantees at all (the R4 case).
    pub const fn unconstrained() -> StreamProperties {
        StreamProperties {
            insert_only: false,
            ordering: Ordering::None,
            deterministic_ties: false,
            key_vs_payload: false,
        }
    }

    /// Insert-only with strictly increasing timestamps (the R0 case).
    pub const fn r0() -> StreamProperties {
        StreamProperties {
            insert_only: true,
            ordering: Ordering::StrictlyIncreasing,
            deterministic_ties: true,
            key_vs_payload: true,
        }
    }

    /// Insert-only, non-decreasing, deterministic tie order (the R1 case).
    pub const fn r1() -> StreamProperties {
        StreamProperties {
            insert_only: true,
            ordering: Ordering::NonDecreasing,
            deterministic_ties: true,
            key_vs_payload: false,
        }
    }

    /// Insert-only, non-decreasing, `(Vs, Payload)` key (the R2 case).
    pub const fn r2() -> StreamProperties {
        StreamProperties {
            insert_only: true,
            ordering: Ordering::NonDecreasing,
            deterministic_ties: false,
            key_vs_payload: true,
        }
    }

    /// Arbitrary elements and order, `(Vs, Payload)` key (the R3 case).
    pub const fn r3() -> StreamProperties {
        StreamProperties {
            insert_only: false,
            ordering: Ordering::None,
            deterministic_ties: false,
            key_vs_payload: true,
        }
    }

    /// The meet of two property vectors: what survives when a stream may be
    /// either of the two (used when unioning plan branches).
    #[must_use]
    pub fn meet(self, other: StreamProperties) -> StreamProperties {
        StreamProperties {
            insert_only: self.insert_only && other.insert_only,
            ordering: self.ordering.max(other.ordering),
            deterministic_ties: self.deterministic_ties && other.deterministic_ties,
            key_vs_payload: self.key_vs_payload && other.key_vs_payload,
        }
    }

    /// Whether every guarantee of `weaker` is also made by `self`.
    pub fn implies(self, weaker: StreamProperties) -> bool {
        (!weaker.insert_only || self.insert_only)
            && self.ordering <= weaker.ordering
            && (!weaker.deterministic_ties || self.deterministic_ties)
            && (!weaker.key_vs_payload || self.key_vs_payload)
    }
}

impl Default for StreamProperties {
    fn default() -> Self {
        StreamProperties::unconstrained()
    }
}

/// The paper's restriction spectrum (Section III-C): which LMerge algorithm
/// family is applicable. Ordered from most restricted (cheapest) to fully
/// general.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub enum RLevel {
    /// Only insert/stable, strictly increasing `Vs`.
    R0,
    /// Insert/stable, non-decreasing `Vs`, deterministic tie order.
    R1,
    /// Insert/stable, non-decreasing `Vs`, `(Vs, Payload)` key.
    R2,
    /// All element kinds, arbitrary order, `(Vs, Payload)` key.
    R3,
    /// No restrictions; TDB is a multiset.
    R4,
}

impl std::fmt::Display for RLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Choose the most restricted (cheapest) LMerge algorithm that is sound for
/// streams with the given properties (Section IV-G).
pub fn select(props: StreamProperties) -> RLevel {
    if props.insert_only && props.ordering == Ordering::StrictlyIncreasing {
        RLevel::R0
    } else if props.insert_only
        && props.ordering <= Ordering::NonDecreasing
        && props.deterministic_ties
    {
        RLevel::R1
    } else if props.insert_only && props.ordering <= Ordering::NonDecreasing && props.key_vs_payload
    {
        RLevel::R2
    } else if props.key_vs_payload {
        RLevel::R3
    } else {
        RLevel::R4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_vectors_select_their_level() {
        assert_eq!(select(StreamProperties::r0()), RLevel::R0);
        assert_eq!(select(StreamProperties::r1()), RLevel::R1);
        assert_eq!(select(StreamProperties::r2()), RLevel::R2);
        assert_eq!(select(StreamProperties::r3()), RLevel::R3);
        assert_eq!(select(StreamProperties::unconstrained()), RLevel::R4);
    }

    #[test]
    fn strictly_increasing_beats_key() {
        // A strictly ordered insert-only stream is R0 even with a key.
        let mut p = StreamProperties::r0();
        p.key_vs_payload = true;
        assert_eq!(select(p), RLevel::R0);
    }

    #[test]
    fn adjusts_force_r3_or_r4() {
        let mut p = StreamProperties::r2();
        p.insert_only = false;
        assert_eq!(select(p), RLevel::R3, "key survives → R3");
        p.key_vs_payload = false;
        assert_eq!(select(p), RLevel::R4);
    }

    #[test]
    fn disorder_without_key_is_r4_even_insert_only() {
        let p = StreamProperties {
            insert_only: true,
            ordering: Ordering::None,
            deterministic_ties: false,
            key_vs_payload: false,
        };
        assert_eq!(select(p), RLevel::R4);
    }

    #[test]
    fn meet_is_pessimistic() {
        let m = StreamProperties::r0().meet(StreamProperties::r3());
        assert!(!m.insert_only);
        assert_eq!(m.ordering, Ordering::None);
        assert!(m.key_vs_payload);
    }

    #[test]
    fn implies_is_reflexive_and_ordered() {
        let r0 = StreamProperties::r0();
        let r4 = StreamProperties::unconstrained();
        assert!(r0.implies(r0));
        assert!(r0.implies(r4), "R0 guarantees everything R4 asks (nothing)");
        assert!(!r4.implies(r0));
    }

    #[test]
    fn rlevel_ordering() {
        assert!(RLevel::R0 < RLevel::R4);
        assert_eq!(format!("{}", RLevel::R3), "R3");
    }
}
