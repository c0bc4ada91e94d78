//! The temporal database (TDB): a multiset of events.
//!
//! The paper's logical stream *is* its TDB (Section III-A). We keep the TDB
//! in a canonical ordered form — `(Vs, Payload) → (Ve → count)` — so that
//! two TDBs are equal iff the logical streams are equivalent, duplicates
//! (the R4 case) are represented exactly, and freeze classification can walk
//! events in `Vs` order.

use crate::event::Event;
use crate::payload::Payload;
use crate::time::Time;
use std::collections::BTreeMap;

/// A multiset of events, canonically ordered.
///
/// This is the reference/oracle representation used by reconstitution,
/// equivalence and compatibility checks, and the test suites. The LMerge
/// algorithms themselves use the leaner purpose-built `in2t`/`in3t` indexes.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Tdb<P: Payload> {
    /// `(Vs, Payload) → (Ve → multiplicity)`; inner map never holds zero counts.
    entries: BTreeMap<(Time, P), BTreeMap<Time, usize>>,
    len: usize,
}

/// Error returned when an `adjust` refers to an event absent from the TDB.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NoSuchEvent {
    /// Validity start named by the adjust.
    pub vs: Time,
    /// Old end time named by the adjust.
    pub vold: Time,
}

impl std::fmt::Display for NoSuchEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "adjust names event (vs={}, vold={}) not present in TDB",
            self.vs, self.vold
        )
    }
}

impl std::error::Error for NoSuchEvent {}

impl<P: Payload> Tdb<P> {
    /// The empty TDB.
    pub fn new() -> Tdb<P> {
        Tdb {
            entries: BTreeMap::new(),
            len: 0,
        }
    }

    /// Number of events counting multiplicity.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the TDB holds no events.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Add one occurrence of `event`.
    pub fn insert(&mut self, event: Event<P>) {
        *self
            .entries
            .entry((event.vs, event.payload))
            .or_default()
            .entry(event.ve)
            .or_insert(0) += 1;
        self.len += 1;
    }

    /// Apply an adjust: change one occurrence of `⟨p, vs, vold⟩` to
    /// `⟨p, vs, ve⟩`, removing it entirely when `ve == vs`.
    pub fn adjust(
        &mut self,
        payload: &P,
        vs: Time,
        vold: Time,
        ve: Time,
    ) -> Result<(), NoSuchEvent> {
        let key = (vs, payload.clone());
        let Some(ves) = self.entries.get_mut(&key) else {
            return Err(NoSuchEvent { vs, vold });
        };
        match ves.get_mut(&vold) {
            Some(c) if *c > 0 => {
                *c -= 1;
                if *c == 0 {
                    ves.remove(&vold);
                }
            }
            _ => return Err(NoSuchEvent { vs, vold }),
        }
        if ve == vs {
            self.len -= 1; // event removed outright
        } else {
            *ves.entry(ve).or_insert(0) += 1;
        }
        if ves.is_empty() {
            self.entries.remove(&key);
        }
        Ok(())
    }

    /// Multiplicity of the exact event `⟨p, vs, ve⟩`.
    pub fn count(&self, payload: &P, vs: Time, ve: Time) -> usize {
        self.entries
            .get(&(vs, payload.clone()))
            .and_then(|m| m.get(&ve))
            .copied()
            .unwrap_or(0)
    }

    /// Total multiplicity across all `Ve` values for `(vs, p)`.
    pub fn count_key(&self, payload: &P, vs: Time) -> usize {
        self.entries
            .get(&(vs, payload.clone()))
            .map(|m| m.values().sum())
            .unwrap_or(0)
    }

    /// The `Ve → count` map for `(vs, p)`, if any event exists there.
    pub fn ves(&self, payload: &P, vs: Time) -> Option<&BTreeMap<Time, usize>> {
        self.entries.get(&(vs, payload.clone()))
    }

    /// The unique `Ve` for `(vs, p)` when `(Vs, Payload)` is a key of the TDB
    /// (the R2/R3 assumption). Returns `None` when absent, and the smallest
    /// `Ve` if — contrary to the assumption — several exist.
    pub fn unique_ve(&self, payload: &P, vs: Time) -> Option<Time> {
        self.ves(payload, vs).and_then(|m| m.keys().next().copied())
    }

    /// Iterate `((Vs, Payload), Ve, count)` in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (&(Time, P), Time, usize)> + '_ {
        self.entries
            .iter()
            .flat_map(|(k, ves)| ves.iter().map(move |(ve, c)| (k, *ve, *c)))
    }

    /// Iterate events expanded by multiplicity.
    pub fn events(&self) -> impl Iterator<Item = Event<P>> + '_ {
        self.iter().flat_map(|((vs, p), ve, c)| {
            std::iter::repeat_with(move || Event {
                vs: *vs,
                ve,
                payload: p.clone(),
            })
            .take(c)
        })
    }

    /// Iterate distinct `(Vs, Payload)` keys in order.
    pub fn keys(&self) -> impl Iterator<Item = &(Time, P)> + '_ {
        self.entries.keys()
    }

    /// Whether `self ⊆ other` as multisets.
    pub fn is_subset_of(&self, other: &Tdb<P>) -> bool {
        self.iter()
            .all(|((vs, p), ve, c)| other.count(p, *vs, ve) >= c)
    }

    /// Snapshot of payloads active at application time `t`, with multiplicity.
    pub fn snapshot_at(&self, t: Time) -> Vec<(P, usize)> {
        let mut out: BTreeMap<P, usize> = BTreeMap::new();
        for ((vs, p), ve, c) in self.iter() {
            if *vs <= t && t < ve {
                *out.entry(p.clone()).or_insert(0) += c;
            }
        }
        out.into_iter().collect()
    }
}

impl<P: Payload> FromIterator<Event<P>> for Tdb<P> {
    fn from_iter<I: IntoIterator<Item = Event<P>>>(iter: I) -> Self {
        let mut tdb = Tdb::new();
        for e in iter {
            tdb.insert(e);
        }
        tdb
    }
}

impl<P: Payload> std::fmt::Debug for Tdb<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.events()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(p: &'static str, vs: i64, ve: i64) -> Event<&'static str> {
        Event::new(p, vs, ve)
    }

    #[test]
    fn insert_and_count() {
        let mut t = Tdb::new();
        t.insert(ev("A", 1, 5));
        t.insert(ev("A", 1, 5));
        t.insert(ev("B", 2, 8));
        assert_eq!(t.len(), 3);
        assert_eq!(t.count(&"A", Time(1), Time(5)), 2);
        assert_eq!(t.count_key(&"A", Time(1)), 2);
        assert_eq!(t.count(&"B", Time(2), Time(8)), 1);
        assert_eq!(t.count(&"C", Time(0), Time(1)), 0);
    }

    #[test]
    fn adjust_changes_end_time() {
        let mut t = Tdb::new();
        t.insert(ev("A", 6, 20));
        t.adjust(&"A", Time(6), Time(20), Time(30)).unwrap();
        t.adjust(&"A", Time(6), Time(30), Time(25)).unwrap();
        // Paper Example 5: equivalent to the single element insert(A, 6, 25).
        let expected: Tdb<&str> = [ev("A", 6, 25)].into_iter().collect();
        assert_eq!(t, expected);
    }

    #[test]
    fn adjust_to_vs_removes() {
        let mut t = Tdb::new();
        t.insert(ev("A", 6, 20));
        t.adjust(&"A", Time(6), Time(20), Time(6)).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.count_key(&"A", Time(6)), 0);
    }

    #[test]
    fn adjust_missing_event_errors() {
        let mut t: Tdb<&str> = Tdb::new();
        let err = t.adjust(&"A", Time(6), Time(20), Time(30)).unwrap_err();
        assert_eq!(
            err,
            NoSuchEvent {
                vs: Time(6),
                vold: Time(20)
            }
        );
    }

    #[test]
    fn adjust_wrong_vold_errors() {
        let mut t = Tdb::new();
        t.insert(ev("A", 6, 20));
        assert!(t.adjust(&"A", Time(6), Time(21), Time(30)).is_err());
        // The original event is untouched.
        assert_eq!(t.count(&"A", Time(6), Time(20)), 1);
    }

    #[test]
    fn equality_is_order_independent() {
        let t1: Tdb<&str> = [ev("A", 1, 4), ev("B", 2, 5)].into_iter().collect();
        let t2: Tdb<&str> = [ev("B", 2, 5), ev("A", 1, 4)].into_iter().collect();
        assert_eq!(t1, t2);
    }

    #[test]
    fn multiset_semantics_distinguish_duplicates() {
        let once: Tdb<&str> = [ev("A", 1, 4)].into_iter().collect();
        let twice: Tdb<&str> = [ev("A", 1, 4), ev("A", 1, 4)].into_iter().collect();
        assert_ne!(once, twice);
        assert!(once.is_subset_of(&twice));
        assert!(!twice.is_subset_of(&once));
    }

    #[test]
    fn snapshot_at_respects_half_open_intervals() {
        let t: Tdb<&str> = [ev("A", 1, 4), ev("B", 2, 5), ev("B", 2, 5)]
            .into_iter()
            .collect();
        assert_eq!(t.snapshot_at(Time(2)), vec![("A", 1), ("B", 2)]);
        assert_eq!(t.snapshot_at(Time(4)), vec![("B", 2)]);
        assert_eq!(t.snapshot_at(Time(5)), vec![]);
    }

    #[test]
    fn unique_ve_lookup() {
        let t: Tdb<&str> = [ev("A", 1, 4)].into_iter().collect();
        assert_eq!(t.unique_ve(&"A", Time(1)), Some(Time(4)));
        assert_eq!(t.unique_ve(&"A", Time(2)), None);
    }

    #[test]
    fn keys_are_sorted_by_vs_then_payload() {
        let t: Tdb<&str> = [ev("B", 1, 4), ev("A", 1, 4), ev("A", 0, 9)]
            .into_iter()
            .collect();
        let keys: Vec<_> = t.keys().cloned().collect();
        assert_eq!(keys, vec![(Time(0), "A"), (Time(1), "A"), (Time(1), "B")]);
    }
}
