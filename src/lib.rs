//! # lmerge — Physically Independent Stream Merging
//!
//! Umbrella crate re-exporting the whole workspace: a production-quality
//! Rust reproduction of *Physically Independent Stream Merging*
//! (Chandramouli, Maier, Goldstein, ICDE 2012) — the **Logical Merge
//! (LMerge)** operator, which merges multiple physically divergent but
//! logically consistent data streams into a single stream compatible with
//! all of them.
//!
//! ## Quick start
//!
//! ```
//! use lmerge::core::{LMergeR3, LogicalMerge};
//! use lmerge::temporal::{Element, Time};
//!
//! // Two physically different presentations of the same logical stream.
//! let mut lm: LMergeR3<&str> = LMergeR3::new(2);
//! let mut out = Vec::new();
//!
//! // Input 0 inserts A with a provisional end; input 1 already knows more.
//! lm.push(lmerge::temporal::StreamId(0), &Element::insert("A", 6, 7), &mut out);
//! lm.push(lmerge::temporal::StreamId(1), &Element::insert("A", 6, 12), &mut out);
//! lm.push(lmerge::temporal::StreamId(1), &Element::stable(20), &mut out);
//!
//! // The merged output reconstitutes to the single event ⟨A, [6, 12)⟩.
//! let tdb = lmerge::temporal::reconstitute::tdb_of(&out).unwrap();
//! assert_eq!(tdb.count(&"A", Time(6), Time(12)), 1);
//! ```
//!
//! ## Layout
//!
//! * [`temporal`] — the stream/TDB model (Section III of the paper).
//! * [`properties`] — compile-time stream properties and algorithm selection.
//! * [`core`] — the LMerge algorithms R0–R4 (R3+, R3− and R4 are one
//!   indexed-merge shell over three node kinds), policies, attach/detach,
//!   feedback (Sections IV and V).
//! * [`engine`] — a mini-DSMS substrate: operators, plans, metrics, and
//!   the one virtual-time executor (`MergeRun`), which also drives
//!   checkpoints and the hooks merged output leaves through (the
//!   StreamInsight stand-in for Section VI).
//! * [`obs`] — virtual-time tracing and diagnostics: event traces, per-input
//!   lag gauges, log-bucketed histograms, JSONL / Chrome-trace exporters.
//! * [`gen`] — the paper's synthetic workload generator and divergence /
//!   lag / burst / congestion models (Section VI-B).
//! * [`chaos`] — deterministic fault injection (crash, rejoin, duplicate,
//!   reorder, frozen stables, stalls, overflow, merge-process crashes) and
//!   the differential conformance harness that replays one fault plan
//!   across the spectrum.
//! * [`durable`] — checkpoint/restore: versioned, checksummed snapshot +
//!   delta files and the checkpoint sink that makes a restarted merge
//!   byte-identical to one that never died.
//! * [`net`] — wire protocol + TCP ingest: physically independent
//!   replicas feeding LMerge over real sockets, with credit backpressure,
//!   crash/resume sessions, and a fault-injecting chaos proxy.
//! * [`sub`] — the merged output: `OutputHook` (egress file and fan-out,
//!   the one way output leaves the executor), a chunked broadcast buffer
//!   over the merged output (encoded once, visible at each flush, sealed
//!   into epochs at stable advances), subscriber sessions with resume
//!   cursors and credit backpressure (the ingest protocol mirrored), and
//!   per-chunk shared filter bitmaps.

pub use lmerge_chaos as chaos;
pub use lmerge_core as core;
pub use lmerge_durable as durable;
pub use lmerge_engine as engine;
pub use lmerge_gen as gen;
pub use lmerge_net as net;
pub use lmerge_obs as obs;
pub use lmerge_properties as properties;
pub use lmerge_sub as sub;
pub use lmerge_temporal as temporal;
