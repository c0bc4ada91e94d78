//! Figure 10: dynamic plan switching with fast-forward feedback.
//!
//! "We instantiate two alternate plans for the same query … The first plan
//! (UDF0) is expensive for small values of X, while the second plan (UDF1)
//! is expensive for large values of X. … UDF0 and UDF1 finish in 176 and
//! 163 seconds respectively. … adding LMerge is not very useful … the
//! total processing time for LMerge is around 163 seconds. We then let
//! LMerge send feedback signals … LM+Feedback completes execution in
//! around 34 seconds, and is nearly 5X faster than LMR3+ without
//! feedback."

use crate::report::MetricsRecord;
use crate::{scale_events, Report, VariantKind};
use lmerge_engine::executor::run_single;
use lmerge_engine::ops::UdfSelect;
use lmerge_engine::{MergeRun, Operator, Query, RunConfig, TimedElement};
use lmerge_gen::batched::{generate_batched, BatchedConfig};
use lmerge_temporal::{VTime, Value};

const THRESHOLD: i32 = 200;
const EXPENSIVE_US: u64 = 800;
const CHEAP_US: u64 = 20;

/// Completion times (virtual seconds) of the four configurations.
pub struct Fig10 {
    /// UDF0 alone.
    pub udf0_s: f64,
    /// UDF1 alone.
    pub udf1_s: f64,
    /// Both plans under LMR3+ without feedback.
    pub lmerge_s: f64,
    /// Both plans under LMR3+ with feedback fast-forward.
    pub feedback_s: f64,
    /// Elements skipped by feedback across both plans.
    pub skipped: u64,
    /// Headline record of the no-feedback merge.
    pub lmerge_rec: MetricsRecord,
    /// Headline record of the feedback merge.
    pub feedback_rec: MetricsRecord,
}

fn source(cfg: &BatchedConfig) -> Vec<TimedElement<Value>> {
    let (elems, _) = generate_batched(cfg);
    // All elements are available up front; cost, not arrival, dominates.
    elems
        .into_iter()
        .map(|e| TimedElement::new(VTime::ZERO, e))
        .collect()
}

fn udf_query(cfg: &BatchedConfig, expensive_small: bool) -> Query<Value> {
    let udf = if expensive_small {
        UdfSelect::udf0(THRESHOLD, EXPENSIVE_US, CHEAP_US)
    } else {
        UdfSelect::udf1(THRESHOLD, EXPENSIVE_US, CHEAP_US)
    };
    Query::new(source(cfg), vec![Box::new(udf) as Box<dyn Operator<Value>>]).with_base_cost(0)
}

/// Run all four configurations.
pub fn run(events: usize) -> Fig10 {
    let cfg = BatchedConfig {
        num_events: events,
        // ~10 batches with mild size variation, so the low-key and
        // high-key totals stay close (the paper's 176 s vs 163 s).
        min_batch: (9 * events) / 100,
        max_batch: (11 * events) / 100,
        // Scale the live window and punctuation cadence with the run so
        // feedback behaves the same at test and full size.
        event_duration_ms: (events / 100).max(50) as i64,
        stable_every: (events / 200).max(50),
        ..Default::default()
    };

    let (_, end0) = run_single(udf_query(&cfg, true));
    let (_, end1) = run_single(udf_query(&cfg, false));

    let run_merged = |feedback: bool| {
        let queries = vec![udf_query(&cfg, true), udf_query(&cfg, false)];
        MergeRun::new(
            queries,
            VariantKind::R3Plus.build(2),
            RunConfig {
                feedback,
                ..Default::default()
            },
        )
        .run()
    };

    let lmerge = run_merged(false);
    let with_feedback = run_merged(true);

    Fig10 {
        udf0_s: end0.as_secs_f64(),
        udf1_s: end1.as_secs_f64(),
        lmerge_s: lmerge.completion().as_secs_f64(),
        feedback_s: with_feedback.completion().as_secs_f64(),
        skipped: 0, // skipped counts live inside the consumed queries
        lmerge_rec: MetricsRecord::from_run(&lmerge),
        feedback_rec: MetricsRecord::from_run(&with_feedback),
    }
}

/// Build the printable report.
pub fn report() -> Report {
    let events = scale_events(200_000);
    let r = run(events);
    let mut report = Report::new(
        "fig10",
        "Plan switching with fast-forward (completion, virtual seconds)",
        &["configuration", "completion (s)", "speedup vs LMR3+"],
    )
    .pin_columns(&["completion (s)", "speedup vs LMR3+"]);
    let base = r.lmerge_s;
    for (name, t) in [
        ("UDF0 alone", r.udf0_s),
        ("UDF1 alone", r.udf1_s),
        ("LMR3+ (no feedback)", r.lmerge_s),
        ("LM+Feedback", r.feedback_s),
    ] {
        report.row(&[
            name.to_string(),
            format!("{t:.1}"),
            format!("{:.1}x", base / t.max(1e-9)),
        ]);
        report.pin(name, "completion s", t);
    }
    report.note(format!(
        "{events} elements, alternating low/high-key batches, 9±. plan switches"
    ));
    report.note("expected: LMR3+ ≈ min(UDF0, UDF1); LM+Feedback several times faster");
    report.metric("LMR3+ (no feedback)", r.lmerge_rec);
    report.metric("LM+Feedback", r.feedback_rec);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feedback_fast_forwards_the_slow_plan() {
        let r = run(20_000);
        // LMerge without feedback tracks (roughly) the faster single plan.
        let faster = r.udf0_s.min(r.udf1_s);
        assert!(
            r.lmerge_s <= 1.15 * faster,
            "no-feedback merge must track the faster plan: {} vs {}",
            r.lmerge_s,
            faster
        );
        // Feedback must be several times faster.
        assert!(
            r.feedback_s * 2.5 < r.lmerge_s,
            "feedback must fast-forward: {} vs {}",
            r.feedback_s,
            r.lmerge_s
        );
    }
}
