//! TDB events: a payload with a half-open validity interval.

use crate::payload::{HeapSize, Payload};
use crate::time::Time;

/// An event of the temporal database: payload `p` valid over `[Vs, Ve)`.
///
/// `Ve` may be [`Time::INFINITY`]. The paper requires `Vs < Ve` for a live
/// event; an adjust that sets `Ve = Vs` *removes* the event (Example 5).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Event<P> {
    /// Validity start (the event's timestamp).
    pub vs: Time,
    /// Validity end (exclusive); may be infinite.
    pub ve: Time,
    /// The relational payload.
    pub payload: P,
}

impl<P: Payload> Event<P> {
    /// Construct an event, asserting interval validity in debug builds.
    pub fn new(payload: P, vs: impl Into<Time>, ve: impl Into<Time>) -> Event<P> {
        let (vs, ve) = (vs.into(), ve.into());
        debug_assert!(vs < ve, "event interval must be non-empty: [{vs}, {ve})");
        Event { vs, ve, payload }
    }

    /// The `(Vs, Payload)` key used by the paper's `in2t`/`in3t` indexes.
    #[inline]
    pub fn key(&self) -> (Time, &P) {
        (self.vs, &self.payload)
    }
}

impl<P: HeapSize> HeapSize for Event<P> {
    #[inline]
    fn heap_bytes(&self) -> usize {
        self.payload.heap_bytes()
    }
}

impl<P: std::fmt::Debug> std::fmt::Debug for Event<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "⟨{:?}, [{}, {})⟩", self.payload, self.vs, self.ve)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The check is a `debug_assert!`: release builds do not make it.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-empty")]
    fn empty_interval_panics_in_debug() {
        let _ = Event::new("A", 5, 5);
    }
}
