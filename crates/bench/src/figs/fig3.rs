//! Figure 3: throughput of LMerge variants over in-order input streams.
//!
//! Paper shape: the simpler the algorithm, the higher the throughput, and
//! LMR3+ clearly beats LMR3− (one shared-index lookup per element versus
//! multiple tree lookups over duplicated state).

use crate::figs::fig2::ordered_workload;
use crate::report::{fmt_eps, MetricsRecord};
use crate::{bench_threads, drive_wallclock, run_points, scale_events, variants, Report};
use lmerge_gen::timing::add_lag;
use lmerge_gen::{assign_times, generate};

/// Sweep result: `(inputs, per-variant output events/s, input elements
/// per output event)`.
pub struct Fig3 {
    /// `(inputs, [eps per variant], in/out)` with variants in order; the
    /// in/out ratio is the same for every variant, which all emit each
    /// logical event once.
    pub rows: Vec<(usize, Vec<f64>, f64)>,
    /// Headline record per `(variant, inputs)` point, for `BENCH_fig3.json`.
    pub metrics: Vec<(String, MetricsRecord)>,
}

/// Run the sweep serially (test entry point — timing-shape assertions need
/// points measured without concurrent interference).
pub fn run(events: usize) -> Fig3 {
    run_with_threads(events, 1)
}

/// Run the sweep, one worker per input-count point; report layout matches
/// a serial run exactly.
pub fn run_with_threads(events: usize, threads: usize) -> Fig3 {
    const INPUTS: [usize; 5] = [2, 4, 6, 8, 10];
    let mut cfg = ordered_workload(events);
    cfg.payload_len = 100;
    let reference = generate(&cfg);
    let points = run_points(INPUTS.len(), threads, |pi| {
        let n = INPUTS[pi];
        let timed: Vec<_> = (0..n)
            .map(|i| {
                let mut t = assign_times(&reference.elements, 50_000.0);
                add_lag(&mut t, i as u64 * 2_000);
                t
            })
            .collect();
        let mut cells = Vec::new();
        let mut metrics = Vec::new();
        let mut counts = Vec::new();
        for v in variants() {
            let mut lm = v.build(n);
            let run = drive_wallclock(lm.as_mut(), &timed);
            cells.push(run.output_eps());
            counts.push((run.elements_in, run.data_out));
            let record = MetricsRecord {
                throughput_eps: run.output_eps(),
                ..MetricsRecord::from_wallclock(&run)
            };
            metrics.push((format!("{}@{}in", v.label(), n), record));
        }
        assert!(
            counts.windows(2).all(|w| w[0] == w[1]),
            "variants disagree on the output at {n} inputs: {counts:?}"
        );
        let (elements_in, data_out) = counts[0];
        (n, cells, elements_in as f64 / data_out as f64, metrics)
    });
    let mut rows = Vec::new();
    let mut metrics = Vec::new();
    for (n, cells, ratio, m) in points {
        rows.push((n, cells, ratio));
        metrics.extend(m);
    }
    Fig3 { rows, metrics }
}

/// Build the printable report.
pub fn report() -> Report {
    let events = scale_events(20_000);
    let result = run_with_threads(events, bench_threads());
    let mut report = Report::new(
        "fig3",
        "Throughput vs #inputs, in-order streams (output events/s, wall clock)",
        &[
            "inputs",
            "LMR0",
            "LMR1",
            "LMR2",
            "LMR3+",
            "LMR3-",
            "LMR4",
            "in el/out ev",
        ],
    )
    .pin_columns(&["in el/out ev"]);
    for (n, cells, ratio) in &result.rows {
        let mut row = vec![n.to_string()];
        row.extend(cells.iter().map(|e| fmt_eps(*e)));
        row.push(format!("{ratio:.3}"));
        report.row(&row);
    }
    report.note(format!("{events} events/stream"));
    report.note(
        "variant cells and BENCH_fig3.json's throughput_eps are output events/s \
         (the paper's y-axis); input elements/s = output events/s x in el/out ev",
    );
    report.note("expected: LMR0/1/2 >> LMR3+ > LMR4 > LMR3-");
    for (label, m) in &result.metrics {
        report.metric(label.clone(), *m);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simpler_is_faster_and_r3plus_beats_naive() {
        let r = run(4_000);
        for (_, cells, _) in &r.rows {
            let (r0, r2, r3p, r3m) = (cells[0], cells[2], cells[3], cells[4]);
            assert!(r0 > r3p, "LMR0 must beat LMR3+");
            assert!(r2 > r3p, "LMR2 must beat LMR3+");
            assert!(r3p > r3m, "LMR3+ must beat LMR3-");
        }
    }
}
