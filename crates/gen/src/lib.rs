//! Workload generation for the LMerge evaluation.
//!
//! Reimplements the paper's synthetic stream generator (Section VI-B) and
//! the run-time phenomena its experiments inject:
//!
//! * [`config::GenConfig`] — the paper's knobs: `StableFreq`,
//!   `EventDuration`, `MaxGap`, `Disorder`, plus payload shape (an integer
//!   in `[0, 400]` and a 1000-byte body) and a seed;
//! * [`generator`] — produces a *reference* physical stream (and its
//!   logical TDB) honouring those knobs;
//! * [`divergence`] — derives N mutually consistent physical copies of the
//!   reference: reordered within punctuation constraints, with alternative
//!   revision paths (provisional end times later adjusted), so the copies
//!   differ in timing, order, and composition exactly as Section I
//!   describes;
//! * [`timing`] — assigns virtual arrival times at a configurable rate and
//!   injects the evaluation's timing phenomena: constant lag (Figure 5),
//!   random bursts (Figure 8), and congestion windows (Figure 9);
//! * [`union`] — a stable-correct union combinator (the paper's motivating
//!   "gather data from multiple sources" case);
//! * [`ticker`] — a synthetic stock-ticker workload with revision tuples,
//!   standing in for the paper's Yahoo! Finance sanity check;
//! * [`batched`] — the alternating-value-batch workload of the
//!   plan-switching experiment (Figure 10).

pub mod batched;
pub mod config;
pub mod divergence;
pub mod generator;
pub mod ticker;
pub mod timing;
pub mod union;

#[cfg(test)]
mod pinned;

pub use config::GenConfig;
pub use divergence::{diverge, DivergenceConfig};
pub use generator::generate;
pub use timing::{assign_times, Timed};
