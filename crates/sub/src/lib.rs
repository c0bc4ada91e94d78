//! lmerge-sub: shared incremental fan-out over the merged output.
//!
//! The merge produces one physically-independent output stream; this
//! crate turns it into an egress plane that scales to very large
//! subscriber counts by doing the expensive work **once per frame or per
//! chunk** instead of once per subscriber:
//!
//! - [`OutputHook`] is the merged stream's way out of the executor: it
//!   counts the output, writes it to an optional file as wire `Data`
//!   frames, and publishes it into an optional [`EpochBuffer`] —
//!   elements are wire-encoded a single time, frozen
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
pub mod output;
pub mod server;

pub use buffer::{Chunk, EpochBuffer, EpochWait, Seal, SubFilter, SubPolicy};
pub use client::{subscribe, subscribe_until_finished, SubOutcome, SubscribeConfig};
pub use output::OutputHook;
pub use server::{SubConfig, SubMetrics, SubServer};
