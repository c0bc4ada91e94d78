//! lmerge-sub: shared incremental fan-out over the merged output.
//!
//! The merge produces one physically-independent output stream; this
//! crate turns it into an egress plane that scales to very large
//! subscriber counts by doing the expensive work **once per frame or per
//! chunk** instead of once per subscriber:
//!
//! - [`BroadcastHooks`] publishes every emitted element into an
//!   [`EpochBuffer`] — elements are wire-encoded a single time, frozen
//!   into refcounted [`Chunk`]s at each flush, and fanned out to N
//!   sessions as ranged writes from the shared byte blocks (zero
//!   per-subscriber copies). A flush — whenever the publisher's input
//!   goes quiet, and at each advance of the output stable point — is
//!   what makes output visible; the stable advance also stamps a
//!   [`Seal`], closing the *epoch* that acks, retention and checkpoints
//!   count in. Delivery does not wait for punctuation.
//! - [`SubServer`] speaks the ingest wire protocol symmetrically: a
//!   `Subscribe`/`Welcome` handshake with a `resume_from` cursor,
//!   per-session credit-based backpressure, and exactly-once resume on
//!   reconnect — the mirror image of the ingest side's `next_seq`
//!   discipline. Slow subscribers are bounded by [`SubPolicy`]: past
//!   `max_lag_epochs` they stop pinning retention and are demoted to
//!   catch-up-from-stable.
//! - [`SubFilter`] predicates are evaluated once per chunk per filter
//!   class (a shared bitmap), not once per subscriber.
//! - Sessions surface in the PR 6 metrics registry (`lmerge_sub_*`
//!   series) and as subscriber lanes in chrome traces; subscriber
//!   cursors and the retained frame window persist through PR 7
//!   checkpoints as the run image's egress section, so a merge-process
//!   restart keeps every subscriber's exactly-once guarantee.

pub mod buffer;
pub mod client;
pub mod server;

pub use buffer::{Chunk, EpochBuffer, EpochWait, Seal, SubFilter, SubPolicy};
pub use client::{subscribe, subscribe_until_finished, SubOutcome, SubscribeConfig};
pub use server::{SubConfig, SubMetrics, SubServer};

use lmerge_engine::{ControlAction, FaultAction, RunHooks};
use lmerge_temporal::{Element, VTime, Value};
use std::sync::Arc;

/// Hooks wrapper that publishes the merged output into a shared
/// [`EpochBuffer`], from which subscriber sessions fan it out.
///
/// Like `NetHooks`, it reports `enabled` unconditionally so both sides of
/// a differential comparison run the executor's hooks-enabled path. The
/// publisher runs on the executor thread, which is what makes a
/// checkpoint-time [`EpochBuffer::image`] exactly consistent with the
/// merge image captured at the same cut.
pub struct BroadcastHooks<H> {
    inner: H,
    buf: Arc<EpochBuffer>,
}

impl<H: RunHooks<Value>> BroadcastHooks<H> {
    /// Wrap `inner`, publishing every emission into `buf`.
    pub fn wrap(inner: H, buf: Arc<EpochBuffer>) -> BroadcastHooks<H> {
        BroadcastHooks { inner, buf }
    }

    /// The shared buffer this publisher feeds.
    pub fn buffer(&self) -> &Arc<EpochBuffer> {
        &self.buf
    }

    /// Flush and seal the open epoch and mark the stream finished (call
    /// after the run completes so sessions drain and close cleanly).
    pub fn finish(&self) {
        self.buf.finish();
    }

    /// Consume the wrapper, returning the inner hooks.
    pub fn into_inner(self) -> H {
        self.inner
    }
}

impl<H: RunHooks<Value>> RunHooks<Value> for BroadcastHooks<H> {
    fn enabled(&self) -> bool {
        true
    }

    fn on_deliver(
        &mut self,
        input: u32,
        at: VTime,
        elements: &[Element<Value>],
    ) -> FaultAction<Value> {
        if self.inner.enabled() {
            self.inner.on_deliver(input, at, elements)
        } else {
            FaultAction::Deliver
        }
    }

    fn on_consumed(
        &mut self,
        input: u32,
        at: VTime,
        delivered: &[Element<Value>],
        emitted: &[Element<Value>],
    ) {
        self.buf.publish(at, emitted);
        if self.inner.enabled() {
            self.inner.on_consumed(input, at, delivered, emitted);
        }
    }

    fn control(&mut self, at: VTime, actions: &mut Vec<ControlAction<Value>>) {
        if self.inner.enabled() {
            self.inner.control(at, actions);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmerge_engine::NoHooks;
    use lmerge_temporal::Time;
    use std::time::Duration;

    #[test]
    fn broadcast_hooks_publish_and_finish() {
        let buf = Arc::new(EpochBuffer::new(SubPolicy::default()));
        let mut hooks = BroadcastHooks::wrap(NoHooks, Arc::clone(&buf));
        assert!(hooks.enabled());
        let emitted = vec![
            Element::insert(Value::bare(1), 0, 5),
            Element::<Value>::stable(Time(3)),
        ];
        hooks.on_consumed(0, VTime(1), &[], &emitted);
        hooks.on_consumed(0, VTime(2), &[], &[Element::insert(Value::bare(2), 4, 9)]);
        hooks.finish();
        let (next_seq, stable, sealed, _) = buf.stats();
        assert_eq!((next_seq, stable, sealed), (3, Time(3), 2));
        // The unsealed remainder was flushed and sealed by `finish`.
        assert!(matches!(
            buf.wait_from(2, Duration::from_millis(10)),
            EpochWait::Ready {
                seal: Some(Seal { index: 1, .. }),
                ..
            }
        ));
        assert!(matches!(
            buf.wait_from(3, Duration::from_millis(10)),
            EpochWait::Finished
        ));
    }
}
