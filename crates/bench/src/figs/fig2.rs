//! Figure 2: memory of LMerge variants over in-order input streams, as the
//! number of inputs grows from 2 to 10.
//!
//! Paper shape: LMR0/LMR1/LMR2 negligible and flat; LMR3+ slightly higher
//! but almost independent of the number of inputs (payloads shared across
//! inputs); LMR3− much higher and degrading linearly with inputs.

use crate::report::{fmt_bytes, MetricsRecord};
use crate::{bench_threads, drive_wallclock, run_points, scale_events, variants, Report};
use lmerge_gen::timing::add_lag;
use lmerge_gen::{assign_times, generate, GenConfig};

/// Sweep result: `(inputs, per-variant peak bytes)` rows.
pub struct Fig2 {
    /// `(inputs, [bytes per variant])` in variant order.
    pub rows: Vec<(usize, Vec<usize>)>,
    /// Headline record per `(variant, inputs)` point, for `BENCH_fig2.json`.
    pub metrics: Vec<(String, MetricsRecord)>,
}

/// The workload shared by Figures 2 and 3: ordered, insert-only streams.
pub fn ordered_workload(events: usize) -> GenConfig {
    GenConfig {
        num_events: events,
        disorder: 0.0,
        disorder_window_ms: 0,
        stable_freq: 0.01,
        event_duration_ms: 30_000,
        max_gap_ms: 20,
        min_gap_ms: 1, // strictly increasing, as the R0 contract requires
        finalize: true,
        ..Default::default()
    }
}

/// Run the sweep serially (test entry point).
pub fn run(events: usize) -> Fig2 {
    run_with_threads(events, 1)
}

/// Run the sweep, one worker per input-count point. Rows and metric labels
/// are assembled in point order, so the report is laid out exactly as a
/// serial run's.
pub fn run_with_threads(events: usize, threads: usize) -> Fig2 {
    const INPUTS: [usize; 5] = [2, 4, 6, 8, 10];
    let reference = generate(&ordered_workload(events));
    let points = run_points(INPUTS.len(), threads, |pi| {
        let n = INPUTS[pi];
        // Identical ordered copies, each lagging 2 ms more than the last —
        // close enough that every copy overlaps the live window.
        let timed: Vec<_> = (0..n)
            .map(|i| {
                let mut t = assign_times(&reference.elements, 50_000.0);
                add_lag(&mut t, i as u64 * 2_000);
                t
            })
            .collect();
        let mut cells = Vec::new();
        let mut metrics = Vec::new();
        for v in variants() {
            let mut lm = v.build(n);
            let run = drive_wallclock(lm.as_mut(), &timed);
            cells.push(run.peak_memory);
            metrics.push((
                format!("{}@{}in", v.label(), n),
                MetricsRecord::from_wallclock(&run),
            ));
        }
        (n, cells, metrics)
    });
    let mut rows = Vec::new();
    let mut metrics = Vec::new();
    for (n, cells, m) in points {
        rows.push((n, cells));
        metrics.extend(m);
    }
    Fig2 { rows, metrics }
}

/// Build the printable report.
pub fn report() -> Report {
    let events = scale_events(20_000);
    let result = run_with_threads(events, bench_threads());
    let mut report = Report::new(
        "fig2",
        "Memory vs #inputs, in-order streams (peak bytes)",
        &["inputs", "LMR0", "LMR1", "LMR2", "LMR3+", "LMR3-", "LMR4"],
    )
    .pin_columns(&["LMR0", "LMR1", "LMR2", "LMR3+", "LMR3-", "LMR4"]);
    for (n, cells) in &result.rows {
        let mut row = vec![n.to_string()];
        row.extend(cells.iter().map(|b| fmt_bytes(*b)));
        report.row(&row);
    }
    report.note(format!(
        "{events} events/stream, disorder 0%, StableFreq 1%"
    ));
    report.note("expected: LMR0-2 flat+tiny; LMR3+ flat; LMR3- linear in inputs");
    for (label, m) in &result.metrics {
        report.metric(label.clone(), *m);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_match_paper() {
        let r = run(4_000);
        let first = &r.rows[0].1;
        let last = &r.rows[r.rows.len() - 1].1;
        // LMR0/LMR1 are tiny at every input count.
        assert!(last[0] < 4096 && last[1] < 4096);
        // LMR3+ (index 3) is roughly flat: within 2x from 2 to 10 inputs.
        assert!((last[3] as f64) < 2.0 * first[3] as f64);
        // LMR3− (index 4) grows substantially with inputs.
        assert!((last[4] as f64) > 2.0 * first[4] as f64);
        // LMR3− exceeds LMR3+ everywhere.
        for (_, cells) in &r.rows {
            assert!(cells[4] > cells[3]);
        }
    }

    #[test]
    fn parallel_run_is_deterministic() {
        // Everything except measured timing must be byte-identical between
        // a serial and a 4-worker run: row order, memory cells, metric
        // labels, memory and chattiness fields.
        let serial = run_with_threads(1_500, 1);
        let parallel = run_with_threads(1_500, 4);
        assert_eq!(serial.rows, parallel.rows);
        let deterministic = |f: &Fig2| {
            f.metrics
                .iter()
                .map(|(label, m)| (label.clone(), m.peak_memory_bytes, m.chattiness_adjusts))
                .collect::<Vec<_>>()
        };
        assert_eq!(deterministic(&serial), deterministic(&parallel));
    }
}
