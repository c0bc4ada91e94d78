//! Re-export of the shared SPSC ring ([`lmerge_core::spsc`]).
//!
//! The ring lives in `lmerge-core`; this module keeps the
//! `lmerge_engine::spsc` paths working.

pub use lmerge_core::spsc::*;
