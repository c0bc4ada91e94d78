//! A bounded queue kept only for the benchmark's per-layer metric
//! `engine.spsc_ns_per_op`: no frame crosses it. Referee v2 (f) deletes
//! this shim together with that metric.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};

/// The sending and receiving halves of a queue of `capacity` slots.
pub fn ring<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    let (tx, rx) = sync_channel(capacity);
    (Producer(tx), Consumer(rx))
}

pub struct Producer<T>(SyncSender<T>);
impl<T> Producer<T> {
    /// Enqueue `value`, or hand it back when the queue is full or closed.
    pub fn push(&mut self, value: T) -> Result<(), T> {
        self.0.try_send(value).map_err(|e| match e {
            TrySendError::Full(v) | TrySendError::Disconnected(v) => v,
        })
    }
}

pub struct Consumer<T>(Receiver<T>);
impl<T> Consumer<T> {
    /// Dequeue the oldest value, if any.
    pub fn pop(&mut self) -> Option<T> {
        self.0.try_recv().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_and_full_hands_the_value_back() {
        let (mut tx, mut rx) = ring(2);
        assert_eq!(tx.push(1), Ok(()));
        assert_eq!(tx.push(2), Ok(()));
        assert_eq!(tx.push(3), Err(3));
        assert_eq!(rx.pop(), Some(1));
        assert_eq!(rx.pop(), Some(2));
        assert_eq!(rx.pop(), None);
    }
}
