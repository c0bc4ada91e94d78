//! A bounded single-producer / single-consumer ring queue.
//!
//! The lmerge-net ingest server feeds each connection's decoded frames
//! through one (the socket reader is the only producer, the merge-side
//! `NetSource` the only consumer — the ring's free space is what the
//! server grants back to the client as frame credits). The single-producer/single-consumer
//! restriction makes a lock-free ring trivial — one monotone `head`
//! (consumer cursor) and one monotone `tail` (producer cursor), each
//! written by exactly one side and read by the other with
//! acquire/release ordering. No dependencies, no unstable features; the
//! slot storage is `UnsafeCell<MaybeUninit<T>>` exactly as in the
//! standard library's channel internals.
//!
//! Capacity is exact (`capacity` slots usable, not `capacity - 1`):
//! fullness is `tail - head == capacity` on the monotone cursors, and the
//! slot index is `cursor % capacity`.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct Inner<T> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Consumer cursor: slots `< head` have been popped.
    head: AtomicU64,
    /// Producer cursor: slots `< tail` have been pushed.
    tail: AtomicU64,
}

// The cells are only touched by the side that owns the cursor range:
// the producer writes `[tail]` before publishing, the consumer reads
// `[head]` after observing it published. `T: Send` is all that moving a
// value across the queue requires.
unsafe impl<T: Send> Sync for Inner<T> {}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        // Both sides are gone (`Arc` refcount hit zero); drain what the
        // consumer never took.
        let head = *self.head.get_mut();
        let tail = *self.tail.get_mut();
        let cap = self.slots.len() as u64;
        for c in head..tail {
            unsafe {
                (*self.slots[(c % cap) as usize].get()).assume_init_drop();
            }
        }
    }
}

/// The producing half of a bounded SPSC queue.
pub struct Producer<T> {
    inner: Arc<Inner<T>>,
    /// Cached copy of the consumer cursor: refreshed only when the ring
    /// looks full, so the fast path is one relaxed load + one store.
    head_cache: u64,
    tail: u64,
}

/// The consuming half of a bounded SPSC queue.
pub struct Consumer<T> {
    inner: Arc<Inner<T>>,
    /// Cached copy of the producer cursor, refreshed when it runs out.
    tail_cache: u64,
    head: u64,
}

/// A bounded SPSC ring with exactly `capacity` usable slots.
pub fn ring<T: Send>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    let capacity = capacity.max(1);
    let inner = Arc::new(Inner {
        slots: (0..capacity)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect(),
        head: AtomicU64::new(0),
        tail: AtomicU64::new(0),
    });
    (
        Producer {
            inner: Arc::clone(&inner),
            head_cache: 0,
            tail: 0,
        },
        Consumer {
            inner,
            tail_cache: 0,
            head: 0,
        },
    )
}

impl<T: Send> Producer<T> {
    /// Try to enqueue; returns the value back if the ring is full.
    pub fn push(&mut self, value: T) -> Result<(), T> {
        let cap = self.inner.slots.len() as u64;
        if self.tail - self.head_cache == cap {
            self.head_cache = self.inner.head.load(Ordering::Acquire);
            if self.tail - self.head_cache == cap {
                return Err(value);
            }
        }
        let slot = (self.tail % cap) as usize;
        unsafe { (*self.inner.slots[slot].get()).write(value) };
        self.tail += 1;
        self.inner.tail.store(self.tail, Ordering::Release);
        Ok(())
    }

    /// Elements currently in flight (approximate from the producer side —
    /// the consumer may drain concurrently, so this is an upper bound).
    pub fn len(&self) -> usize {
        (self.tail - self.inner.head.load(Ordering::Acquire)) as usize
    }

    /// Whether the ring currently holds nothing (producer-side view).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The ring's capacity in slots.
    pub fn capacity(&self) -> usize {
        self.inner.slots.len()
    }
}

impl<T: Send> Consumer<T> {
    /// Try to dequeue; `None` when the ring is empty.
    pub fn pop(&mut self) -> Option<T> {
        if self.head == self.tail_cache {
            self.tail_cache = self.inner.tail.load(Ordering::Acquire);
            if self.head == self.tail_cache {
                return None;
            }
        }
        let cap = self.inner.slots.len() as u64;
        let slot = (self.head % cap) as usize;
        let value = unsafe { (*self.inner.slots[slot].get()).assume_init_read() };
        self.head += 1;
        self.inner.head.store(self.head, Ordering::Release);
        Some(value)
    }

    /// Elements currently in flight (approximate from the consumer side —
    /// the producer may push concurrently, so this is a lower bound).
    pub fn len(&self) -> usize {
        (self.inner.tail.load(Ordering::Acquire) - self.head) as usize
    }

    /// Whether the ring currently holds nothing (consumer-side view).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_capacity() {
        let (mut tx, mut rx) = ring::<u32>(4);
        for v in 0..4 {
            tx.push(v).unwrap();
        }
        assert_eq!(tx.push(99), Err(99), "exactly `capacity` slots");
        for v in 0..4 {
            assert_eq!(rx.pop(), Some(v));
        }
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn wraps_around_many_times() {
        let (mut tx, mut rx) = ring::<u64>(3);
        for v in 0..1000u64 {
            assert!(tx.push(v).is_ok(), "consumer keeps pace in this test");
            assert_eq!(rx.pop(), Some(v));
        }
        assert!(tx.is_empty());
    }

    #[test]
    fn crosses_threads() {
        let (mut tx, mut rx) = ring::<u64>(8);
        const N: u64 = 100_000;
        std::thread::scope(|scope| {
            scope.spawn(move || {
                for v in 0..N {
                    let mut item = v;
                    while let Err(back) = tx.push(item) {
                        item = back;
                        std::hint::spin_loop();
                    }
                }
            });
            let mut expected = 0;
            while expected < N {
                if let Some(v) = rx.pop() {
                    assert_eq!(v, expected);
                    expected += 1;
                } else {
                    std::hint::spin_loop();
                }
            }
        });
    }

    #[test]
    fn drops_undelivered_items() {
        struct Counted(Arc<AtomicU64>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicU64::new(0));
        let (mut tx, mut rx) = ring::<Counted>(4);
        tx.push(Counted(Arc::clone(&drops))).ok().unwrap();
        tx.push(Counted(Arc::clone(&drops))).ok().unwrap();
        drop(rx.pop()); // one consumed
        drop(tx);
        drop(rx);
        assert_eq!(drops.load(Ordering::SeqCst), 2, "ring drops the leftover");
    }
}
