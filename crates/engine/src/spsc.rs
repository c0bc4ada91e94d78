//! Re-export of the shared SPSC ring ([`lmerge_core::spsc`]).
//!
//! The ring lives in `lmerge-core`, where the lmerge-net ingest server
//! reaches it; this module keeps the `lmerge_engine::spsc` paths working.

pub use lmerge_core::spsc::*;
