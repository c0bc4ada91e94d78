//! Figure 9: masking network congestion.
//!
//! "We model network congestion at different points in time in each of
//! three streams, by introducing normally distributed delays between
//! elements during the congested period. … the output of LMerge is
//! unaffected by such congestion, as it is able to produce output as long
//! as at least one input is not lagging. Note that at around 18 seconds,
//! two inputs are simultaneously congested, but LMerge is unaffected."

use crate::report::MetricsRecord;
use crate::{scale_events, Report, VariantKind};
use lmerge_engine::{MergeRun, Query, RunConfig, TimedElement};
use lmerge_gen::timing::add_congestion;
use lmerge_gen::{assign_times, diverge, generate, DivergenceConfig, GenConfig};
use lmerge_temporal::VTime;

/// Result: per-second rates of all three inputs and of the output.
pub struct Fig9 {
    /// `(second, in0, in1, in2, output)` rows.
    pub series: Vec<(u64, u64, u64, u64, u64)>,
    /// Output CV over the congested span.
    pub output_cv: f64,
    /// Worst single-input CV.
    pub worst_input_cv: f64,
    /// Headline record of the merged run.
    pub record: MetricsRecord,
}

/// Run the experiment.
pub fn run(events: usize) -> Fig9 {
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
    let div = DivergenceConfig::default();
    // Congestion windows: stream 0 at 2–4 s, stream 1 at 6–8 s and again at
    // 10–12 s together with stream 2 (the paper's simultaneous case).
    let windows: [Vec<(u64, u64)>; 3] = [vec![(2, 4)], vec![(6, 8), (10, 12)], vec![(10, 12)]];
    let queries: Vec<Query<_>> = windows
        .iter()
        .enumerate()
        .map(|(i, ws)| {
            let copy = diverge(&reference.elements, &div, i as u64);
            let mut timed = assign_times(&copy, 5_000.0);
            for (k, (from, to)) in ws.iter().enumerate() {
                add_congestion(
                    &mut timed,
                    VTime::from_secs(*from),
                    VTime::from_secs(*to),
                    1.0,
                    0.3,
                    2000 + (i * 10 + k) as u64,
                );
            }
            Query::passthrough(
                timed
                    .into_iter()
                    .map(|(at, e)| TimedElement::new(at, e))
                    .collect(),
            )
        })
        .collect();
    let metrics = MergeRun::new(queries, VariantKind::R3Plus.build(3), RunConfig::default()).run();

    let last_second = metrics.drained_at.as_micros() / 1_000_000;
    let series = (0..=last_second)
        .map(|s| {
            (
                s,
                metrics.input_series[0].at(s),
                metrics.input_series[1].at(s),
                metrics.input_series[2].at(s),
                metrics.output_series.at(s),
            )
        })
        .collect();
    let worst_input_cv = metrics
        .input_series
        .iter()
        .map(|s| s.coefficient_of_variation())
        .fold(0.0, f64::max);
    Fig9 {
        series,
        output_cv: metrics.output_series.coefficient_of_variation(),
        worst_input_cv,
        record: MetricsRecord::from_run(&metrics),
    }
}

/// Build the printable report.
pub fn report() -> Report {
    let events = scale_events(30_000);
    let result = run(events);
    let mut report = Report::new(
        "fig9",
        "Masking network congestion: per-second rates (3 inputs, LMR3+)",
        &["second", "in0", "in1", "in2", "LMerge out"],
    )
    .pin_columns(&["in0", "in1", "in2", "LMerge out"]);
    for (s, a, b, c, o) in &result.series {
        report.row(&[
            s.to_string(),
            a.to_string(),
            b.to_string(),
            c.to_string(),
            o.to_string(),
        ]);
    }
    report.note(format!(
        "CV: worst input {:.3}, output {:.3}",
        result.worst_input_cv, result.output_cv
    ));
    report.note("congestion: in0@2-4s, in1@6-8s, in1+in2@10-12s (simultaneous)");
    report.note("expected: output steady through every congestion window");
    report.metric("LMR3+ 3 congested inputs", result.record);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn congestion_is_masked() {
        let r = run(20_000);
        assert!(
            r.output_cv < 0.6 * r.worst_input_cv,
            "output must be steadier than congested inputs: {:.3} vs {:.3}",
            r.output_cv,
            r.worst_input_cv
        );
    }
}
