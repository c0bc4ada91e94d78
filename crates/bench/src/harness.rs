//! Shared machinery for the figure benchmarks.

use lmerge_core::{
    LMergeR0, LMergeR1, LMergeR2, LMergeR3, LMergeR3Naive, LMergeR4, LogicalMerge, MergeStats,
};
use lmerge_gen::{diverge, generate, DivergenceConfig, GenConfig, Timed};
use lmerge_temporal::{Element, StreamId, Value};
use std::time::Instant;

/// The operator variants of Section VI-A, by evaluation name.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VariantKind {
    /// `LMR0`
    R0,
    /// `LMR1`
    R1,
    /// `LMR2`
    R2,
    /// `LMR3+` (the `in2t` algorithm)
    R3Plus,
    /// `LMR3−` (naive per-input indexes)
    R3Minus,
    /// `LMR4` (the `in3t` algorithm)
    R4,
}

impl VariantKind {
    /// The label used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            VariantKind::R0 => "LMR0",
            VariantKind::R1 => "LMR1",
            VariantKind::R2 => "LMR2",
            VariantKind::R3Plus => "LMR3+",
            VariantKind::R3Minus => "LMR3-",
            VariantKind::R4 => "LMR4",
        }
    }

    /// Instantiate the operator for `n` inputs.
    pub fn build(self, n: usize) -> Box<dyn LogicalMerge<Value>> {
        match self {
            VariantKind::R0 => Box::new(LMergeR0::new(n)),
            VariantKind::R1 => Box::new(LMergeR1::new(n)),
            VariantKind::R2 => Box::new(LMergeR2::new(n)),
            VariantKind::R3Plus => Box::new(LMergeR3::new(n)),
            VariantKind::R3Minus => Box::new(LMergeR3Naive::new(n)),
            VariantKind::R4 => Box::new(LMergeR4::new(n)),
        }
    }
}

/// All variants, cheapest first.
pub fn variants() -> [VariantKind; 6] {
    [
        VariantKind::R0,
        VariantKind::R1,
        VariantKind::R2,
        VariantKind::R3Plus,
        VariantKind::R3Minus,
        VariantKind::R4,
    ]
}

/// `LMERGE_BENCH_EVENTS`, when it is set to a number.
pub fn scale_override() -> Option<usize> {
    std::env::var("LMERGE_BENCH_EVENTS")
        .ok()
        .and_then(|v| v.parse().ok())
}

/// Events per stream: `LMERGE_BENCH_EVENTS` or a laptop-friendly default.
pub fn scale_events(default: usize) -> usize {
    scale_override().unwrap_or(default)
}

/// Generate `n` divergent copies of one logical stream.
pub fn build_divergent_inputs(
    gen_cfg: &GenConfig,
    div_cfg: &DivergenceConfig,
    n: usize,
) -> Vec<Vec<Element<Value>>> {
    let reference = generate(gen_cfg);
    (0..n)
        .map(|i| diverge(&reference.elements, div_cfg, i as u64))
        .collect()
}

/// Result of a wall-clock drive: how fast the operator itself runs.
#[derive(Clone, Copy, Debug)]
pub struct WallClockRun {
    /// Real seconds spent inside the operator.
    pub elapsed_s: f64,
    /// Elements pushed in.
    pub elements_in: u64,
    /// Data elements emitted.
    pub data_out: u64,
    /// Peak memory estimate observed (sampled every 1024 elements).
    pub peak_memory: usize,
    /// Final operator statistics.
    pub stats: MergeStats,
}

impl WallClockRun {
    /// Input elements consumed per real second (rises when duplicates can
    /// be dropped cheaply — the effect Figure 5 measures).
    pub fn throughput_eps(&self) -> f64 {
        if self.elapsed_s == 0.0 {
            0.0
        } else {
            self.elements_in as f64 / self.elapsed_s
        }
    }

    /// Output data elements produced per real second (the paper's
    /// "events produced at the output per second" metric).
    pub fn output_eps(&self) -> f64 {
        if self.elapsed_s == 0.0 {
            0.0
        } else {
            self.data_out as f64 / self.elapsed_s
        }
    }
}

/// Drive pre-timed inputs through an LMerge in global arrival order,
/// measuring real (wall-clock) operator cost — the paper's throughput
/// metric isolates the operator, so we do too.
pub fn drive_wallclock(lm: &mut dyn LogicalMerge<Value>, inputs: &[Vec<Timed>]) -> WallClockRun {
    // Merge the per-input timelines into one global arrival order.
    let mut all: Vec<(u64, u32, &Element<Value>)> = Vec::new();
    for (i, input) in inputs.iter().enumerate() {
        for (at, e) in input {
            all.push((at.as_micros(), i as u32, e));
        }
    }
    all.sort_by_key(|(at, i, _)| (*at, *i));

    let mut out = Vec::with_capacity(256);
    let mut data_out = 0u64;
    let mut peak = 0usize;
    let start = Instant::now();
    for (n, (_, input, e)) in all.iter().enumerate() {
        out.clear();
        lm.push(StreamId(*input), e, &mut out);
        data_out += out.iter().filter(|e| !e.is_stable()).count() as u64;
        if n % 1024 == 0 {
            peak = peak.max(lm.memory_bytes());
        }
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    peak = peak.max(lm.memory_bytes());
    WallClockRun {
        elapsed_s,
        elements_in: all.len() as u64,
        data_out,
        peak_memory: peak,
        stats: lm.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmerge_gen::assign_times;

    #[test]
    fn variants_roundtrip_labels() {
        for v in variants() {
            let lm = v.build(2);
            assert!(!v.label().is_empty());
            drop(lm);
        }
    }

    #[test]
    fn divergent_inputs_build() {
        let inputs =
            build_divergent_inputs(&GenConfig::small(100, 1), &DivergenceConfig::default(), 3);
        assert_eq!(inputs.len(), 3);
        assert_ne!(inputs[0], inputs[1]);
    }

    #[test]
    fn wallclock_drive_merges() {
        let inputs =
            build_divergent_inputs(&GenConfig::small(200, 2), &DivergenceConfig::default(), 2);
        let timed: Vec<_> = inputs.iter().map(|i| assign_times(i, 50_000.0)).collect();
        let mut lm = VariantKind::R3Plus.build(2);
        let run = drive_wallclock(lm.as_mut(), &timed);
        assert!(run.elements_in > 400);
        assert_eq!(run.stats.inserts_out, 200, "one output per logical event");
        assert!(run.throughput_eps() > 0.0);
    }

    #[test]
    fn scale_env_override() {
        assert_eq!(scale_events(1234), 1234);
    }
}
