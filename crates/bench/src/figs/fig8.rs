//! Figure 8: smoothing bursty streams.
//!
//! "We generate four bursty streams with 20% disorder, each having an
//! average event rate of 5000 elements/sec. … We model burstiness by
//! inserting random delays between tuples in a stream with a small
//! probability (between 0.3 and 0.5%). The delays are chosen from a
//! truncated normal distribution with mean 20 and standard deviation 5. …
//! Each stream is bursty, but LMerge smooths out the burstiness because it
//! chooses to follow the best input at any given instant."

use crate::report::MetricsRecord;
use crate::{scale_events, Report, VariantKind};
use lmerge_engine::{MergeRun, Query, RunConfig, TimedElement};
use lmerge_gen::timing::add_bursts;
use lmerge_gen::{assign_times, diverge, generate, DivergenceConfig, GenConfig};

/// Result: per-second input (stream 0) and output rates, plus CVs.
pub struct Fig8 {
    /// `(second, input0 rate, output rate)` rows.
    pub series: Vec<(u64, u64, u64)>,
    /// Coefficient of variation of the bursty input.
    pub input_cv: f64,
    /// Coefficient of variation of the merged output.
    pub output_cv: f64,
    /// Headline record of the merged run.
    pub record: MetricsRecord,
}

/// Run the experiment.
pub fn run(events: usize) -> Fig8 {
    let cfg = GenConfig {
        num_events: events,
        disorder: 0.20,
        disorder_window_ms: 5_000,
        stable_freq: 0.01,
        event_duration_ms: 2_000,
        max_gap_ms: 20,
        payload_len: 32,
        ..Default::default()
    };
    let reference = generate(&cfg);
    let div = DivergenceConfig {
        revision_prob: 0.1,
        ..Default::default()
    };
    let queries: Vec<Query<_>> = (0..4u64)
        .map(|i| {
            let copy = diverge(&reference.elements, &div, i);
            let mut timed = assign_times(&copy, 5_000.0); // 5000 el/s
                                                          // A few long stalls (~0.4 s): distinct per-second dips at
                                                          // 5000 el/s, like the paper's Figure 8.
            add_bursts(&mut timed, 0.00015, 400.0, 100.0, 1000 + i);
            Query::passthrough(
                timed
                    .into_iter()
                    .map(|(at, e)| TimedElement::new(at, e))
                    .collect(),
            )
        })
        .collect();
    let metrics = MergeRun::new(queries, VariantKind::R3Plus.build(4), RunConfig::default()).run();

    let last_second = metrics.drained_at.as_micros() / 1_000_000;
    let mut series: Vec<(u64, u64, u64)> = (0..=last_second)
        .map(|s| {
            (
                s,
                metrics.input_series[0].at(s),
                metrics.output_series.at(s),
            )
        })
        .collect();
    while series.last().is_some_and(|(_, i, o)| *i == 0 && *o == 0) {
        series.pop();
    }
    // The trailing bucket is a partial second; exclude it from the CVs.
    let cv = |vals: &[u64]| {
        let n = vals.len() as f64;
        let mean = vals.iter().sum::<u64>() as f64 / n;
        if mean == 0.0 {
            return 0.0;
        }
        let var = vals
            .iter()
            .map(|v| (*v as f64 - mean) * (*v as f64 - mean))
            .sum::<f64>()
            / n;
        var.sqrt() / mean
    };
    let full = &series[..series.len().saturating_sub(1)];
    let input_cv = cv(&full.iter().map(|r| r.1).collect::<Vec<_>>());
    let output_cv = cv(&full.iter().map(|r| r.2).collect::<Vec<_>>());
    Fig8 {
        series,
        input_cv,
        output_cv,
        record: MetricsRecord::from_run(&metrics),
    }
}

/// Build the printable report.
pub fn report() -> Report {
    let events = scale_events(30_000);
    let result = run(events);
    let mut report = Report::new(
        "fig8",
        "Handling bursty data: per-second rates (4 bursty inputs, LMR3+)",
        &["second", "input0 (el/s)", "LMerge out (el/s)"],
    )
    .pin_columns(&["input0 (el/s)", "LMerge out (el/s)"]);
    for (s, i, o) in &result.series {
        report.row(&[s.to_string(), i.to_string(), o.to_string()]);
    }
    report.note(format!(
        "coefficient of variation: input {:.3}, output {:.3}",
        result.input_cv, result.output_cv
    ));
    report.note("expected: output much smoother than any single bursty input");
    report.metric("LMR3+ 4 bursty inputs", result.record);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_is_smoother_than_input() {
        let r = run(20_000);
        assert!(
            r.output_cv < 0.7 * r.input_cv,
            "LMerge must smooth bursts: input CV {:.3}, output CV {:.3}",
            r.input_cv,
            r.output_cv
        );
    }
}
