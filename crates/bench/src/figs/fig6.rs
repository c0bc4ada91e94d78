//! Figure 6: memory and throughput as `StableFreq` varies.
//!
//! "As we increase StableFreq from 0.001% to 1%, memory usage decreases as
//! expected, due to more frequent cleanup. On the other hand, the
//! throughput for LMR3+ and LMR4 decreases, as we need to perform more
//! frequent compatibility checks. The throughput for simpler schemes is not
//! affected."

use crate::report::MetricsRecord;
use crate::{bench_threads, drive_wallclock, run_points, scale_events, Report, VariantKind};
use lmerge_gen::timing::add_lag;
use lmerge_gen::{assign_times, generate, GenConfig};

/// One sweep point.
pub struct Fig6Row {
    /// Probability that an element is a `stable`.
    pub stable_freq: f64,
    /// Peak memory (bytes) per measured variant: LMR1, LMR3+, LMR4.
    pub memory: [usize; 3],
    /// Input throughput (elements/s) per measured variant.
    pub eps: [f64; 3],
    /// Headline record per measured variant (LMR1, LMR3+, LMR4).
    pub records: [MetricsRecord; 3],
}

/// Run the StableFreq sweep serially (test entry point).
pub fn run(events: usize) -> Vec<Fig6Row> {
    run_with_threads(events, 1)
}

/// Run the StableFreq sweep, one worker per frequency point (each point
/// generates its own workload, so the whole point parallelizes).
pub fn run_with_threads(events: usize, threads: usize) -> Vec<Fig6Row> {
    const FREQS: [f64; 4] = [0.00001, 0.0001, 0.001, 0.01];
    run_points(FREQS.len(), threads, |pi| {
        let stable_freq = FREQS[pi];
        let cfg = GenConfig {
            num_events: events,
            disorder: 0.0,
            disorder_window_ms: 0,
            stable_freq,
            event_duration_ms: 30_000,
            max_gap_ms: 20,
            min_gap_ms: 1,
            payload_len: 100,
            ..Default::default()
        };
        let reference = generate(&cfg);
        let timed: Vec<_> = (0..2)
            .map(|i| {
                let mut t = assign_times(&reference.elements, 50_000.0);
                add_lag(&mut t, i as u64 * 2_000);
                t
            })
            .collect();
        let mut memory = [0usize; 3];
        let mut eps = [0f64; 3];
        let mut records = [MetricsRecord::default(); 3];
        for (i, v) in [VariantKind::R1, VariantKind::R3Plus, VariantKind::R4]
            .into_iter()
            .enumerate()
        {
            let mut lm = v.build(2);
            let run = drive_wallclock(lm.as_mut(), &timed);
            memory[i] = run.peak_memory;
            eps[i] = run.throughput_eps();
            records[i] = MetricsRecord::from_wallclock(&run);
        }
        Fig6Row {
            stable_freq,
            memory,
            eps,
            records,
        }
    })
}

/// Build the printable report.
pub fn report() -> Report {
    let events = scale_events(20_000);
    let rows = run_with_threads(events, bench_threads());
    let mut report = Report::new(
        "fig6",
        "Memory and throughput vs StableFreq (2 inputs)",
        &[
            "StableFreq",
            "mem LMR1",
            "mem LMR3+",
            "mem LMR4",
            "eps LMR1",
            "eps LMR3+",
            "eps LMR4",
        ],
    )
    .pin_columns(&["mem LMR1", "mem LMR3+", "mem LMR4"]);
    for r in &rows {
        report.row(&[
            format!("{:.3}%", r.stable_freq * 100.0),
            crate::report::fmt_bytes(r.memory[0]),
            crate::report::fmt_bytes(r.memory[1]),
            crate::report::fmt_bytes(r.memory[2]),
            crate::report::fmt_eps(r.eps[0]),
            crate::report::fmt_eps(r.eps[1]),
            crate::report::fmt_eps(r.eps[2]),
        ]);
    }
    report.note(format!("{events} events/stream, ordered workload"));
    report.note("expected: LMR3+/LMR4 memory falls as StableFreq rises; LMR1 flat");
    for r in &rows {
        for (label, rec) in ["LMR1", "LMR3+", "LMR4"].iter().zip(&r.records) {
            report.metric(format!("{label}@sf={:.3}%", r.stable_freq * 100.0), *rec);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_falls_with_stable_freq() {
        let rows = run(6_000);
        let (first, last) = (&rows[0], rows.last().unwrap());
        // Rare punctuation (0.001%) retains far more state than 1%.
        assert!(
            first.memory[1] as f64 > 1.4 * last.memory[1] as f64,
            "LMR3+ memory must fall with StableFreq: {} → {}",
            first.memory[1],
            last.memory[1]
        );
        assert!(
            first.memory[2] as f64 > 1.4 * last.memory[2] as f64,
            "LMR4 memory must fall with StableFreq"
        );
        // LMR1 stays constant-size regardless.
        assert!(last.memory[0] < 4096 && first.memory[0] < 4096);
    }
}
