//! Network ingest for LMerge: physically independent replicas feeding the
//! merge over real sockets.
//!
//! The paper's premise is that LMerge's inputs are *physically independent*
//! — separate machines, separate failure domains — yet the rest of this
//! workspace delivers feeds in-process. This crate closes that gap with a
//! deliberately small TCP substrate, std-only (no tokio, no serde):
//!
//! * [`wire`] — a versioned, length-prefixed binary frame format for
//!   `insert`/`adjust`/`stable` plus session control, with a per-frame
//!   FNV-1a checksum (the workspace's one [`lmerge_core::hash`]), typed, panic-free decode errors, and [`wire::FrameReader`] —
//!   the one buffered reader every socket on every plane is read through,
//!   so system calls are paid per read, not per frame;
//! * [`server`] — the ingest side: one TCP connection per input, a
//!   handshake carrying protocol version / input id / resume offset,
//!   credit-based backpressure keyed off a bounded
//!   [`lmerge_core::spsc`] ring, and a [`server::NetSource`] implementing
//!   the engine's [`lmerge_engine::Source`] so decoded elements enter the
//!   ordinary virtual-time executor;
//! * [`listener`] — the accept loop both session servers and the chaos
//!   proxy share, the handshake timeout, and [`listener::SessionCounts`]:
//!   registry series, the only account of a session (none is traced);
//! * [`client`] — the replayer: streams a pre-timed feed with configurable
//!   pacing, honours credits, and resumes from the server's acked offset
//!   after a crash or disconnect;
//! * [`proxy`] — a chaos proxy that forwards bytes while injecting
//!   seeded delays, stalls, and connection resets, so the conformance
//!   oracle can judge merge output under *real* network faults rather
//!   than only the in-process injection of the chaos crate.
//!
//! The merged output leaves the executor through one `RunHooks` —
//! `lmerge_sub::OutputHook`, which writes these same wire `Data` frames to
//! a file and publishes them to subscribers — so this crate has no egress
//! code of its own.
//!
//! The invariant the whole crate defends: because virtual arrival times
//! travel **inside** the frames, delivering a feed over a socket — even
//! through the chaos proxy, even across a kill-and-rejoin — reconstructs
//! exactly the `TimedElement` sequence an in-process run would consume,
//! so the merged output (and its trace) is byte-identical. Real time
//! affects only *when* the run finishes, never *what* it produces.

pub mod client;
pub mod listener;
pub mod proxy;
pub mod server;
pub mod wire;

pub use client::{replay, ReplayConfig, ReplayOutcome};
pub use proxy::{ChaosProxy, ProxyFault, ProxyPlan};
pub use server::{IngestConfig, IngestServer, NetSource};
pub use wire::{
    decode, encode, read_frame, write_frame, Frame, FrameReader, WireError, PROTOCOL_VERSION,
};
