//! A mini-DSMS substrate hosting LMerge — the StreamInsight stand-in.
//!
//! The paper evaluates LMerge inside Microsoft StreamInsight, a closed
//! commercial engine. This crate rebuilds the pieces of such an engine that
//! the evaluation exercises:
//!
//! * an [`operator::Operator`] abstraction over the StreamInsight element
//!   model (`insert`/`adjust`/`stable`), with per-element virtual CPU cost;
//! * a library of operators ([`ops`]): filter, map, interval count
//!   aggregation (which turns disorder into revisions, the paper's
//!   adjust-generating sub-query), grouped count, Top-k, lifetime
//!   alteration, union, the **Cleanse** reordering operator of Section VI-D,
//!   and cost-asymmetric UDF selections for the plan-switching experiment;
//! * a [`query::Query`]: a source plus an operator chain, executed on its
//!   own virtual core;
//! * an [`executor::MergeRun`]: N queries feeding one LMerge under a
//!   deterministic **virtual-time** executor that models arrival lag,
//!   bursts, congestion, and CPU cost without wall-clock dependence. It is
//!   the only executor: tracing, checkpoints ([`durability`]) and fault
//!   injection all run through its one loop, on the calling thread;
//! * [`hooks`]: the loop's per-batch boundary. [`RunHooks::on_consumed`]
//!   is where merged output leaves the executor, and a pair `(A, B)` of
//!   hooks composes an output sink with a fault injector;
//! * [`metrics`]: throughput series, latency, memory samples, and output
//!   chattiness — the measurements behind every figure in Section VI;
//! * feedback propagation (Section V-D): the executor carries LMerge's
//!   feedback point back to the queries, whose operators fast-forward past
//!   work that can no longer matter.

pub mod durability;
pub mod executor;
pub mod hooks;
pub mod metrics;
pub mod operator;
pub mod ops;
pub mod query;
pub mod spsc;

pub use durability::{
    CheckpointSave, CheckpointSink, EgressImage, ExecutorImage, FrameRun, NoCheckpoint, RunCut,
    RunImage,
};
pub use executor::{MergeRun, RunConfig};
pub use hooks::{ControlAction, FaultAction, NoHooks, RunHooks};
pub use metrics::{RunMetrics, Series};
pub use operator::{Operator, TimedElement};
pub use query::{Query, Source};
