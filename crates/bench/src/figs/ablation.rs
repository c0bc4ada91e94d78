//! Policy ablation (Section V-A): how the output-policy knobs trade
//! responsiveness against chattiness and spurious output.
//!
//! Not a figure in the paper — this quantifies the design choices the paper
//! discusses, over a revision-heavy workload (the count sub-query over
//! divergent disordered inputs, which produces transient events that are
//! later deleted — exactly what the conservative policies exist to avoid):
//!
//! * **inserts/adjusts out** — output volume (Table II's axis);
//! * **spurious** — inserts later fully deleted (never in the final TDB);
//! * **first-response latency** — virtual time from an event's first
//!   appearance on any input to its first appearance on the output.

use crate::figs::fig4::subquery;
use crate::{scale_events, Report};
use lmerge_core::{AdjustPolicy, InsertPolicy, LMergeR3, LogicalMerge, MergePolicy, StablePolicy};
use lmerge_gen::{assign_times, diverge, generate, DivergenceConfig, GenConfig, Timed};
use lmerge_temporal::{Element, StreamId, Time, Value};
use std::collections::HashMap;

/// One policy's measurements.
pub struct AblationRow {
    /// Human-readable policy name.
    pub name: &'static str,
    /// Insert elements emitted.
    pub inserts_out: u64,
    /// Adjust elements emitted.
    pub adjusts_out: u64,
    /// Inserts that were later fully deleted (spurious).
    pub spurious: u64,
    /// Mean per-event first-response latency (µs of virtual arrival time).
    pub mean_latency_us: f64,
}

fn policies() -> Vec<(&'static str, MergePolicy)> {
    vec![
        ("default (lazy)", MergePolicy::paper_default()),
        ("eager adjusts", MergePolicy::eager()),
        ("wait-half-frozen", MergePolicy::conservative()),
        (
            "quorum(2)",
            MergePolicy {
                insert: InsertPolicy::Quorum(2),
                ..Default::default()
            },
        ),
        (
            "follow-leader",
            MergePolicy {
                insert: InsertPolicy::FollowLeader,
                ..Default::default()
            },
        ),
        (
            "stable-lag(1s)",
            MergePolicy {
                adjust: AdjustPolicy::Lazy,
                stable: StablePolicy::Lag(1_000),
                ..Default::default()
            },
        ),
    ]
}

/// Run the ablation over `events` source events and 3 divergent inputs.
pub fn run(events: usize) -> Vec<AblationRow> {
    let cfg = GenConfig {
        num_events: events,
        disorder: 0.4,
        disorder_window_ms: 2_000,
        stable_freq: 0.01,
        event_duration_ms: 25,
        max_gap_ms: 20,
        payload_len: 32,
        ..Default::default()
    };
    let reference = generate(&cfg);
    let div = DivergenceConfig {
        revision_prob: 0.0,
        ..Default::default()
    };
    // Revision-heavy inputs: the count sub-query over each divergent copy.
    let timed: Vec<Vec<Timed>> = (0..3)
        .map(|i| assign_times(&subquery(&diverge(&reference.elements, &div, i)), 50_000.0))
        .collect();
    // Global arrival order.
    let mut all: Vec<(u64, u32, &Element<Value>)> = Vec::new();
    for (i, input) in timed.iter().enumerate() {
        for (at, e) in input {
            all.push((at.as_micros(), i as u32, e));
        }
    }
    all.sort_by_key(|(at, i, _)| (*at, *i));

    policies()
        .into_iter()
        .map(|(name, policy)| {
            let mut lm: LMergeR3<Value> = LMergeR3::with_policy(3, policy);
            let mut out = Vec::new();
            let mut all_out: Vec<Element<Value>> = Vec::new();
            // Per-event bookkeeping for first-response latency.
            let mut first_seen: HashMap<(Time, Value), u64> = HashMap::new();
            let mut latencies: Vec<u64> = Vec::new();
            for (at, input, e) in &all {
                if let Some((vs, p)) = e.key() {
                    first_seen.entry((vs, p.clone())).or_insert(*at);
                }
                out.clear();
                lm.push(StreamId(*input), e, &mut out);
                for oe in &out {
                    if let (true, Some((vs, p))) = (oe.is_insert(), oe.key()) {
                        if let Some(seen) = first_seen.get(&(vs, p.clone())) {
                            latencies.push(at - seen);
                        }
                    }
                }
                all_out.extend(out.iter().cloned());
            }
            let stats = lm.stats();
            let final_tdb =
                lmerge_temporal::reconstitute::tdb_of(&all_out).expect("output well formed");
            let spurious = stats.inserts_out.saturating_sub(final_tdb.len() as u64);
            let mean_latency_us = if latencies.is_empty() {
                0.0
            } else {
                latencies.iter().sum::<u64>() as f64 / latencies.len() as f64
            };
            AblationRow {
                name,
                inserts_out: stats.inserts_out,
                adjusts_out: stats.adjusts_out,
                spurious,
                mean_latency_us,
            }
        })
        .collect()
}

/// Build the printable report.
pub fn report() -> Report {
    let events = scale_events(10_000);
    let rows = run(events);
    let mut report = Report::new(
        "ablation",
        "Policy ablation: output volume, spurious inserts, first-response latency",
        &["policy", "inserts", "adjusts", "spurious", "latency"],
    )
    .pin_columns(&["inserts", "adjusts", "spurious", "latency"]);
    for r in &rows {
        report.row(&[
            r.name.to_string(),
            r.inserts_out.to_string(),
            r.adjusts_out.to_string(),
            r.spurious.to_string(),
            format!("{:.2}ms", r.mean_latency_us / 1000.0),
        ]);
        report.pin(r.name, "latency us", r.mean_latency_us);
    }
    report.note(format!(
        "{events} source events, 40% disorder, count sub-query, 3 inputs"
    ));
    report.note("expected: wait-half-frozen/quorum cut spurious inserts but pay latency; eager maximizes adjusts");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conservative_policies_cut_spurious_output() {
        let rows = run(3_000);
        let by_name = |n: &str| rows.iter().find(|r| r.name.starts_with(n)).unwrap();
        let default = by_name("default");
        let conservative = by_name("wait-half-frozen");
        let quorum = by_name("quorum");
        let eager = by_name("eager");
        assert!(
            default.spurious > 0,
            "workload must actually produce transient events"
        );
        assert!(conservative.spurious < default.spurious);
        assert!(quorum.spurious <= default.spurious);
        assert!(eager.adjusts_out >= default.adjusts_out);
        // Conservatism costs first-response latency.
        assert!(conservative.mean_latency_us > default.mean_latency_us);
    }
}
