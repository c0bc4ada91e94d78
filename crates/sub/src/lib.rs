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
//!   per-subscriber copies). A flush — before every wait of the
//!   publisher's merge thread, and at each advance of the output stable
//!   point — is what makes output visible; the stable advance also stamps a
//!   [`Seal`], closing the *epoch* that acks, retention and checkpoints
//!   count in. Delivery does not wait for punctuation.
//! - [`SubServer`] speaks the ingest wire protocol symmetrically: a
//!   `Subscribe`/`Welcome` handshake with a `resume_from` cursor,
//!   per-session credit-based backpressure, and exactly-once resume on
//!   reconnect — the mirror image of the ingest side's `next_seq`
//!   discipline. Slow subscribers are bounded by [`SubPolicy`]: past
//!   `max_lag_epochs` they stop pinning retention and are demoted to
//!   catch-up-from-stable. Sessions own no thread: every flush of the
//!   buffer writes them from the thread that flushed.
//! - [`SubFilter`] predicates are evaluated once per chunk per filter
//!   class (a shared bitmap), not once per subscriber.
//! - Sessions are accounted in the metrics registry only (`lmerge_sub_*`,
//!   through `lmerge_net::listener` as on ingest); subscriber
//!   cursors and the retained frame window persist through PR 7
//!   checkpoints as the run image's egress section, so a merge-process
//!   restart keeps every subscriber's exactly-once guarantee.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod buffer;
pub mod client;
pub mod output;
pub mod server;

pub use buffer::{Chunk, ChunkAt, EpochBuffer, Seal, SubFilter, SubPolicy};
pub use client::{subscribe, subscribe_until_finished, SubOutcome, SubscribeConfig};
pub use output::OutputHook;
pub use server::{SubConfig, SubMetrics, SubServer, DEPARTED_GRACE_EPOCHS};
