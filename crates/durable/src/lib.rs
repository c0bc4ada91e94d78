//! Durable merge state: checkpoint/restore.
//!
//! The paper's LMerge operator makes physically independent replicas
//! interchangeable *while the process lives*; this crate extends the
//! guarantee across process death. It persists the canonical state images
//! exported by `lmerge-core` ([`lmerge_core::MergeStateImage`]) together
//! with the executor's scheduling cut ([`lmerge_engine::ExecutorImage`])
//! as versioned, checksummed files.
//!
//! Two layers:
//!
//! * [`codec`] — the file envelope (magic, version, kind, word-folded
//!   FNV-1a checksum) and a bounds-checked cursor; corruption always
//!   surfaces as a typed [`DurableError`], never a panic.
//! * [`checkpoint`] — [`CheckpointStore`]: a chain of full snapshots and
//!   index-diff deltas, written synchronously; [`DurableCheckpointSink`]
//!   plugs the store into the executor's [`lmerge_engine::CheckpointSink`]
//!   boundary with the store on a writer thread, so the run pays for the
//!   cut and not for the disk.
//!
//! Recovery composes the pieces: [`CheckpointStore::load_latest`] yields a
//! [`lmerge_engine::RunImage`]; `LogicalMerge::restore_state` rebuilds the
//! operator; `MergeRun::resumed` rebuilds the schedule; and for networked
//! inputs the image's transport cursors seed the ingest server's resume
//! handshake so each session replays exactly from its acked prefix.

pub mod checkpoint;
pub mod codec;
mod fsutil;
pub mod image;
pub mod payload;

pub use checkpoint::{
    apply_delta, encode_delta, CheckpointStore, CursorSource, DurableCheckpointSink, EgressSource,
    Recovery, DEFAULT_SNAPSHOT_EVERY,
};
pub use codec::{envelope, open_envelope, Cursor, DurableError, FileKind, MAGIC, VERSION};
pub use image::{get_merge_image, get_run_image, put_merge_image, put_run_image};
pub use payload::DurablePayload;
