//! The **Logical Merge (LMerge)** operator (Sections IV and V of the paper).
//!
//! LMerge takes multiple *physically divergent but logically consistent*
//! input streams and emits a single stream compatible with all of them. This
//! crate implements the paper's full algorithm spectrum:
//!
//! | Variant | Paper case | State | Module |
//! |---------|-----------|-------|--------|
//! | [`LMergeR0`] | R0: insert-only, strictly increasing `Vs` | `O(1)` | [`r0`] |
//! | [`LMergeR1`] | R1: insert-only, non-decreasing, deterministic ties | `O(s)` | [`r1`] |
//! | [`LMergeR2`] | R2: insert-only, non-decreasing, `(Vs, P)` key | `O(g·p)` | [`r2`] |
//! | [`LMergeR3`] | R3: all elements, any order, `(Vs, P)` key — the `in2t` index | `O(w(p+s))` | `r3` |
//! | [`LMergeR3Naive`] | the paper's `LMR3−` baseline (per-input indexes) | `O(w·p·s)` | `r3_naive` |
//! | [`LMergeR4`] | R4: no restrictions (multiset TDB) — the `in3t` index | `O(w(p+s·d))` | `r4` |
//!
//! The last three are one shell over three node kinds: `shell::IndexedMerge`
//! counts and gates elements, runs the batch path, the robustness guards,
//! attach/detach and the common state image, and each kind (`r3`,
//! `r3_naive`, `r4`) supplies its index and the decisions that differ —
//! insert, adjust, the half-freeze sweep, the stable mapping and the entry
//! image. R0–R2 keep only the shell's bookkeeping (registry, tallies, stats,
//! stable point).
//!
//! All variants implement the [`LogicalMerge`] trait: feed elements with
//! [`LogicalMerge::push`], harvest output elements from the supplied vector.
//! The operators are pure deterministic state machines — wall-clock free —
//! so the engine can drive them under virtual time and the tests can check
//! every output prefix against the temporal crate's compatibility oracle.
//!
//! Policies (Section V-A) are configured via [`policy::MergePolicy`];
//! dynamic attachment/detachment of inputs (Section V-B) via
//! [`LogicalMerge::attach`]/[`LogicalMerge::detach`]; feedback-driven
//! fast-forward (Section V-D) via [`LogicalMerge::feedback_point`].

pub mod api;
pub mod det;
pub mod hash;
pub mod in2t;
pub mod in3t;
pub mod inputs;
pub mod mem;
pub mod merge;
pub mod policy;
pub mod r0;
pub mod r1;
pub mod r2;
mod r3;
mod r3_naive;
mod r4;
pub mod select;
mod shell;
pub mod spsc;
pub mod state;
pub mod stats;
mod tier;

pub use api::{BatchMeta, InputHealth, LogicalMerge};
pub use det::{DetBuildHasher, DetHashMap};
pub use hash::{fnv1a, Fnv1a};
pub use inputs::{HealthTransitions, InputState, Inputs};
pub use mem::{btree_bytes, hash_table_bytes};
pub use merge::{merge_streams, Interleave};
pub use policy::{AdjustPolicy, InsertPolicy, MergePolicy, RobustnessPolicy, StablePolicy};
pub use r0::LMergeR0;
pub use r1::LMergeR1;
pub use r2::LMergeR2;
pub use r3::LMergeR3;
pub use r3_naive::LMergeR3Naive;
pub use r4::LMergeR4;
pub use select::{new_for_level, new_for_properties};
pub use state::{
    CountersImage, IndexChanges, InputStateImage, MergeCut, MergeStateImage, StateEntry,
    VariantKind,
};
pub use stats::{InputCounters, MergeStats, PerInput};
pub use tier::SweepAction;
