//! Figure 7 (and the Section VI-D latency discussion): enforcing stream
//! properties (Cleanse + LMR1) versus using the general LMerge directly.
//!
//! "Our optimized LMR3+ algorithm performs best, and its memory usage is
//! almost independent of the number of input streams. However, the
//! Cleanse-based solution (C+LMR1) suffers linear degradation … the
//! overhead is nearly 7X more than LMR3+ for 10 inputs. … Using LM
//! directly incurs latency in milliseconds … the Cleanse solution will
//! incur orders-of-magnitude higher latency."

use crate::report::MetricsRecord;
use crate::{drive_wallclock, scale_events, Report, VariantKind};
use lmerge_core::{LMergeR1, LogicalMerge};
use lmerge_engine::ops::Cleanse;
use lmerge_engine::{MergeRun, Operator, Query, RunConfig, TimedElement};
use lmerge_gen::{assign_times, diverge, generate, DivergenceConfig, GenConfig, Timed};
use lmerge_temporal::{Element, StreamId, Value};
use std::time::Instant;

/// One sweep point.
pub struct Fig7Row {
    /// Number of input streams.
    pub inputs: usize,
    /// Peak memory: LMR3+, LMR3−, C+LMR1.
    pub memory: [usize; 3],
    /// Wall-clock input throughput: LMR3+, LMR3−, C+LMR1.
    pub eps: [f64; 3],
    /// Mean virtual latency (µs): LMR3+, C+LMR1.
    pub latency_us: [f64; 2],
    /// Headline record per configuration (LMR3+, LMR3−, C+LMR1).
    pub records: [MetricsRecord; 3],
}

fn sub_streams(events: usize, n: usize) -> Vec<Vec<Element<Value>>> {
    // 50% disorder with revision paths over full 1000-byte payloads: the
    // paper's "output of this query fragment contains 36% adjust()
    // elements, with a 0.1% chance of seeing a stable() element".
    let cfg = GenConfig {
        num_events: events,
        disorder: 0.5,
        disorder_window_ms: 5_000,
        stable_freq: 0.001,
        event_duration_ms: 2_000,
        max_gap_ms: 20,
        payload_len: 1000,
        ..Default::default()
    };
    let reference = generate(&cfg);
    let div = DivergenceConfig {
        revision_prob: 0.36,
        ..Default::default()
    };
    (0..n)
        .map(|i| diverge(&reference.elements, &div, i as u64))
        .collect()
}

/// Wall-clock drive of the Cleanse-per-input + LMR1 pipeline.
fn drive_cleanse_lmr1(timed: &[Vec<Timed>]) -> (f64, u64, usize) {
    let n = timed.len();
    let mut all: Vec<(u64, u32, &Element<Value>)> = Vec::new();
    for (i, input) in timed.iter().enumerate() {
        for (at, e) in input {
            all.push((at.as_micros(), i as u32, e));
        }
    }
    all.sort_by_key(|(at, i, _)| (*at, *i));

    let mut cleanses: Vec<Cleanse<Value>> = (0..n).map(|_| Cleanse::new()).collect();
    let mut lm: LMergeR1<Value> = LMergeR1::new(n);
    let mut cleansed = Vec::new();
    let mut out = Vec::new();
    let mut peak = 0usize;
    let start = Instant::now();
    for (k, (_, i, e)) in all.iter().enumerate() {
        cleansed.clear();
        cleanses[*i as usize].on_element(e, &mut cleansed);
        for ce in &cleansed {
            out.clear();
            lm.push(StreamId(*i), ce, &mut out);
        }
        if k % 1024 == 0 {
            let mem = lm.memory_bytes() + cleanses.iter().map(|c| c.memory_bytes()).sum::<usize>();
            peak = peak.max(mem);
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let mem = lm.memory_bytes() + cleanses.iter().map(|c| c.memory_bytes()).sum::<usize>();
    peak = peak.max(mem);
    (elapsed, all.len() as u64, peak)
}

/// Mean virtual latency of a merged run (µs).
fn virtual_latency(streams: &[Vec<Element<Value>>], cleanse: bool) -> f64 {
    let n = streams.len();
    let queries: Vec<Query<Value>> = streams
        .iter()
        .map(|s| {
            let timed: Vec<TimedElement<Value>> = assign_times(s, 50_000.0)
                .into_iter()
                .map(|(at, e)| TimedElement::new(at, e))
                .collect();
            if cleanse {
                Query::new(
                    timed,
                    vec![Box::new(Cleanse::new()) as Box<dyn Operator<Value>>],
                )
            } else {
                Query::passthrough(timed)
            }
        })
        .collect();
    let lm: Box<dyn LogicalMerge<Value>> = if cleanse {
        Box::new(LMergeR1::new(n))
    } else {
        VariantKind::R3Plus.build(n)
    };
    let metrics = MergeRun::new(queries, lm, RunConfig::default()).run();
    metrics.mean_latency_us()
}

/// Run the input-count sweep.
pub fn run(events: usize, input_counts: &[usize]) -> Vec<Fig7Row> {
    let max_n = input_counts.iter().copied().max().unwrap_or(2);
    let subs = sub_streams(events, max_n);
    let mut rows = Vec::new();
    for &n in input_counts {
        let streams = &subs[..n];
        let timed: Vec<Vec<Timed>> = streams
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut t = assign_times(s, 50_000.0);
                lmerge_gen::timing::add_lag(&mut t, i as u64 * 1_000);
                t
            })
            .collect();

        let mut memory = [0usize; 3];
        let mut eps = [0f64; 3];
        let mut records = [MetricsRecord::default(); 3];
        for (i, v) in [VariantKind::R3Plus, VariantKind::R3Minus]
            .into_iter()
            .enumerate()
        {
            let mut lm = v.build(n);
            let r = drive_wallclock(lm.as_mut(), &timed);
            memory[i] = r.peak_memory;
            eps[i] = r.throughput_eps();
            records[i] = MetricsRecord::from_wallclock(&r);
        }
        let (elapsed, elements, peak) = drive_cleanse_lmr1(&timed);
        memory[2] = peak;
        eps[2] = elements as f64 / elapsed;
        records[2] = MetricsRecord {
            throughput_eps: eps[2],
            peak_memory_bytes: peak as u64,
            ..Default::default()
        };

        let latency_us = [
            virtual_latency(streams, false),
            virtual_latency(streams, true),
        ];
        rows.push(Fig7Row {
            inputs: n,
            memory,
            eps,
            latency_us,
            records,
        });
    }
    rows
}

/// Build the printable report.
pub fn report() -> Report {
    let events = scale_events(10_000);
    let rows = run(events, &[2, 4, 6, 8, 10]);
    let mut report = Report::new(
        "fig7",
        "Enforcing stream properties: LMR3+ vs LMR3- vs Cleanse+LMR1",
        &[
            "inputs",
            "mem LMR3+",
            "mem LMR3-",
            "mem C+LMR1",
            "eps LMR3+",
            "eps LMR3-",
            "eps C+LMR1",
            "lat LMR3+",
            "lat C+LMR1",
        ],
    )
    .pin_columns(&[
        "mem LMR3+",
        "mem LMR3-",
        "mem C+LMR1",
        "lat LMR3+",
        "lat C+LMR1",
    ]);
    for r in &rows {
        report.row(&[
            r.inputs.to_string(),
            crate::report::fmt_bytes(r.memory[0]),
            crate::report::fmt_bytes(r.memory[1]),
            crate::report::fmt_bytes(r.memory[2]),
            crate::report::fmt_eps(r.eps[0]),
            crate::report::fmt_eps(r.eps[1]),
            crate::report::fmt_eps(r.eps[2]),
            format!("{:.1}ms", r.latency_us[0] / 1000.0),
            format!("{:.1}ms", r.latency_us[1] / 1000.0),
        ]);
        report.pin(r.inputs, "lat LMR3+ us", r.latency_us[0]);
        report.pin(r.inputs, "lat C+LMR1 us", r.latency_us[1]);
    }
    report.note(format!(
        "{events} source events, 50% disorder through count sub-query"
    ));
    report.note(
        "expected: C+LMR1 memory linear in inputs and >> LMR3+; latency orders-of-magnitude higher",
    );
    for r in &rows {
        for (label, rec) in ["LMR3+", "LMR3-", "C+LMR1"].iter().zip(&r.records) {
            report.metric(format!("{label}@{}in", r.inputs), *rec);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cleanse_pays_memory_and_latency() {
        let rows = run(3_000, &[2, 6]);
        let (small, big) = (&rows[0], &rows[1]);
        // C+LMR1 memory grows with inputs and exceeds LMR3+.
        assert!(big.memory[2] > small.memory[2]);
        assert!(big.memory[2] > big.memory[0], "Cleanse buffers dominate");
        // Latency: Cleanse must be at least 10x the direct merge.
        assert!(
            big.latency_us[1] > 10.0 * big.latency_us[0].max(1.0),
            "expected orders-of-magnitude latency gap: {:?}",
            big.latency_us
        );
    }
}
