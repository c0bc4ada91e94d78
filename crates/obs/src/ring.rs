//! A bounded, drop-oldest ring buffer for trace events.
//!
//! Long runs emit far more events than anyone wants to keep; the ring keeps
//! the *most recent* `capacity` of them and counts what it sheds, so memory
//! stays O(capacity) no matter how long the run is and the trace still says
//! how much history was lost.

use crate::event::TraceEvent;

/// Fixed-capacity event store with drop-oldest overflow.
#[derive(Clone, Debug)]
pub(crate) struct EventRing {
    buf: Vec<TraceEvent>,
    /// Index of the oldest element when the ring is full.
    head: usize,
    capacity: usize,
    recorded: u64,
    dropped: u64,
}

impl EventRing {
    /// A ring holding at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> EventRing {
        let capacity = capacity.max(1);
        EventRing {
            buf: Vec::new(),
            head: 0,
            capacity,
            recorded: 0,
            dropped: 0,
        }
    }

    /// Append an event, evicting the oldest if the ring is full.
    pub fn push(&mut self, event: TraceEvent) {
        self.recorded += 1;
        if self.buf.len() < self.capacity {
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Events currently held, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> + '_ {
        let (tail, head) = self.buf.split_at(self.head);
        head.iter().chain(tail.iter())
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Total events ever pushed (retained + dropped).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events evicted to make room for newer ones.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmerge_temporal::VTime;

    fn ev(at: u64) -> TraceEvent {
        TraceEvent::RunCompleted { at: VTime(at) }
    }

    fn times(r: &EventRing) -> Vec<u64> {
        r.iter().map(|e| e.at().as_micros()).collect()
    }

    #[test]
    fn fills_in_order_below_capacity() {
        let mut r = EventRing::new(4);
        for t in 0..3 {
            r.push(ev(t));
        }
        assert_eq!(times(&r), vec![0, 1, 2]);
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 0);
        assert_eq!(r.recorded(), 3);
    }

    #[test]
    fn drops_oldest_when_full() {
        let mut r = EventRing::new(3);
        for t in 0..7 {
            r.push(ev(t));
        }
        assert_eq!(times(&r), vec![4, 5, 6], "newest three survive, in order");
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 4);
        assert_eq!(r.recorded(), 7);
    }

    #[test]
    fn wraps_repeatedly() {
        let mut r = EventRing::new(2);
        for t in 0..100 {
            r.push(ev(t));
        }
        assert_eq!(times(&r), vec![98, 99]);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut r = EventRing::new(0);
        r.push(ev(1));
        r.push(ev(2));
        assert_eq!(r.capacity, 1);
        assert_eq!(times(&r), vec![2]);
    }

    #[test]
    fn empty_ring_iterates_nothing() {
        let r = EventRing::new(8);
        assert_eq!(r.len(), 0);
        assert_eq!(r.iter().count(), 0);
    }
}
