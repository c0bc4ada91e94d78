//! Figure 4: output size (adjust elements) as disorder increases.
//!
//! "We introduce disorder in the input stream, and feed it into a sub-query
//! that generates many adjust() elements. … when disorder increases, the
//! number of adjusts increases significantly at the output. However, our
//! specific output policy controls chattiness by limiting the production of
//! intermediate adjusts that may not be present in the final TDB."
//!
//! Alongside the without-LMerge baseline we run LMerge under both the
//! paper's default (lazy) adjust policy and the eager alternative of
//! Section V-A, to show the policy is what bounds the chattiness.

use crate::report::MetricsRecord;
use crate::{drive_wallclock, scale_events, Report};
use lmerge_core::{LMergeR3, LogicalMerge, MergePolicy};
use lmerge_engine::ops::IntervalCount;
use lmerge_engine::Operator;
use lmerge_gen::{assign_times, diverge, generate, DivergenceConfig, GenConfig};
use lmerge_temporal::{Element, Value};

/// Push a stream through the adjust-generating sub-query (grouped interval
/// count — the paper's "aggregate (count) followed by a lifetime
/// modification"; the count already bounds lifetimes to interval ends).
pub fn subquery(input: &[Element<Value>]) -> Vec<Element<Value>> {
    let mut agg = IntervalCount::new(8);
    let mut out = Vec::with_capacity(input.len() * 2);
    let mut buf = Vec::new();
    for e in input {
        buf.clear();
        agg.on_element(e, &mut buf);
        out.append(&mut buf);
    }
    out
}

/// One sweep point.
pub struct Fig4Row {
    /// Disorder fraction of the source stream.
    pub disorder: f64,
    /// Adjusts in a single sub-query output (the "without LMerge" series).
    pub adjusts_no_lmerge: u64,
    /// Inserts in that sub-query output.
    pub inserts_no_lmerge: u64,
    /// Adjusts LMerge emits under the default lazy policy.
    pub adjusts_lazy: u64,
    /// Adjusts LMerge emits under the eager adjust policy.
    pub adjusts_eager: u64,
    /// Headline record of the lazy-policy merge run.
    pub lazy: MetricsRecord,
    /// Headline record of the eager-policy merge run.
    pub eager: MetricsRecord,
}

/// Run the disorder sweep.
pub fn run(events: usize) -> Vec<Fig4Row> {
    let mut rows = Vec::new();
    for disorder in [0.0, 0.1, 0.2, 0.3, 0.4, 0.5] {
        let cfg = GenConfig {
            num_events: events,
            disorder,
            disorder_window_ms: 1_000,
            stable_freq: 0.01,
            // Lifetimes only slightly above the mean gap: an in-order
            // stream splits little, so revisions come from disorder.
            event_duration_ms: 25,
            max_gap_ms: 20,
            payload_len: 32,
            ..Default::default()
        };
        let reference = generate(&cfg);
        let div = DivergenceConfig {
            revision_prob: 0.0, // disorder alone drives the revisions here
            ..Default::default()
        };
        // The "without LMerge" series runs the sub-query over the raw
        // generator output: its revisions come purely from the injected
        // disorder (an in-order input yields zero adjusts).
        let baseline = subquery(&reference.elements);
        let adjusts_no_lmerge = baseline.iter().filter(|e| e.is_adjust()).count() as u64;
        let inserts_no_lmerge = baseline.iter().filter(|e| e.is_insert()).count() as u64;
        let subs: Vec<Vec<Element<Value>>> = (0..2)
            .map(|i| subquery(&diverge(&reference.elements, &div, i)))
            .collect();

        let timed: Vec<_> = subs.iter().map(|s| assign_times(s, 50_000.0)).collect();
        let merge = |policy: MergePolicy| {
            let mut lm: Box<dyn LogicalMerge<Value>> = Box::new(LMergeR3::with_policy(2, policy));
            MetricsRecord::from_wallclock(&drive_wallclock(lm.as_mut(), &timed))
        };
        let lazy = merge(MergePolicy::paper_default());
        let eager = merge(MergePolicy::eager());
        rows.push(Fig4Row {
            disorder,
            adjusts_no_lmerge,
            inserts_no_lmerge,
            adjusts_lazy: lazy.chattiness_adjusts,
            adjusts_eager: eager.chattiness_adjusts,
            lazy,
            eager,
        });
    }
    rows
}

/// Build the printable report.
pub fn report() -> Report {
    let events = scale_events(20_000);
    let rows = run(events);
    let mut report = Report::new(
        "fig4",
        "Output size vs disorder: sub-query adjusts with and without LMerge",
        &[
            "disorder",
            "adjusts(no LM)",
            "inserts(no LM)",
            "adjusts(LM lazy)",
            "adjusts(LM eager)",
        ],
    )
    .pin_columns(&[
        "adjusts(no LM)",
        "inserts(no LM)",
        "adjusts(LM lazy)",
        "adjusts(LM eager)",
    ]);
    for r in &rows {
        report.row(&[
            format!("{:.0}%", r.disorder * 100.0),
            r.adjusts_no_lmerge.to_string(),
            r.inserts_no_lmerge.to_string(),
            r.adjusts_lazy.to_string(),
            r.adjusts_eager.to_string(),
        ]);
    }
    report.note(format!(
        "{events} source events, count sub-query, 2 inputs, LMR3+"
    ));
    report.note("expected: adjusts grow with disorder; lazy policy far less chatty than eager");
    for r in &rows {
        let pct = format!("{:.0}%", r.disorder * 100.0);
        report.metric(format!("lazy@{pct}"), r.lazy);
        report.metric(format!("eager@{pct}"), r.eager);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adjusts_grow_with_disorder_and_policy_tames_them() {
        let rows = run(4_000);
        let (first, last) = (&rows[0], rows.last().unwrap());
        assert!(
            last.adjusts_no_lmerge as f64 > 1.5 * (first.adjusts_no_lmerge as f64).max(1.0),
            "adjusts must increase with disorder: {} → {}",
            first.adjusts_no_lmerge,
            last.adjusts_no_lmerge
        );
        assert!(
            last.adjusts_lazy < last.adjusts_eager,
            "lazy policy must be less chatty than eager: {} vs {}",
            last.adjusts_lazy,
            last.adjusts_eager
        );
    }
}
