//! Operator library for the mini-DSMS.
//!
//! * [`Filter`], [`Map`], [`AlterLifetime`] — stateless element transforms.
//! * [`IntervalCount`] — a revision-producing count aggregate over event
//!   intervals (the paper's adjust-generating sub-query: "aggregate (count)
//!   followed by a lifetime modification").
//! * [`TopK`] — multi-valued aggregate emitting duplicate timestamps in
//!   deterministic rank order (the R1 workload of Section IV-G).
//! * [`Cleanse`] — the ordering enforcer of Section VI-D: buffers a
//!   disordered, revising stream and releases a deterministic, in-order,
//!   insert-only stream (the `C+LMR1` baseline's front end).
//! * [`UdfSelect`] — a selection with payload-dependent virtual CPU cost and
//!   feedback-driven fast-forward (the plan-switching workload, Figure 10).

mod alter;
mod cleanse;
mod count;
mod filter;
mod join;
mod map;
mod topk;
mod udf;

pub use alter::AlterLifetime;
pub use cleanse::Cleanse;
pub use count::{payload_for, IntervalCount};
pub use filter::Filter;
pub use join::{join_streams, BinaryOperator, TemporalJoin};
pub use map::Map;
pub use topk::TopK;
pub use udf::UdfSelect;
