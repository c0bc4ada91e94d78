//! Benchmark harness for the LMerge evaluation (paper Section VI).
//!
//! One binary per table/figure regenerates the corresponding result:
//!
//! | Binary | Paper artefact |
//! |--------|----------------|
//! | `fig2` | Memory vs #inputs, in-order streams, all variants |
//! | `fig3` | Throughput vs #inputs, in-order streams, all variants |
//! | `fig4` | Output size (adjusts) vs disorder, with/without LMerge |
//! | `fig5` | Throughput vs stream lag |
//! | `fig6` | Memory & throughput vs StableFreq |
//! | `fig7` | Memory, throughput & latency: LMR3+ vs LMR3− vs C+LMR1 |
//! | `fig8` | Smoothing bursty streams |
//! | `fig9` | Masking network congestion |
//! | `fig10` | Plan switching with fast-forward feedback |
//! | `table4` | Empirical check of the complexity table |
//! | `all` | Runs everything above and the beyond-paper reports in sequence, and writes the figure golden |
//!
//! Scale is controlled by `LMERGE_BENCH_EVENTS` (by default 1 500–200 000
//! events per stream, set per figure — small enough for seconds-per-figure
//! on a laptop, large enough for the paper's shapes to be unmistakable).
//!
//! Every cell that is a pure function of (code, seed) — peak memory,
//! chattiness, virtual latency and completion, per-second virtual rates —
//! is named by its report ([`Report::golden`]). `all` writes them to
//! `target/bench-results/figures.txt`, which CI diffs byte for byte
//! against `tests/golden/figures.txt`. Wall-clock cells never enter it.

pub mod figs;
pub mod harness;
pub mod parallel;
pub mod report;

pub use harness::{
    build_divergent_inputs, drive_wallclock, scale_events, scale_override, variants, VariantKind,
};
pub use parallel::{bench_threads, run_points};
pub use report::Report;
