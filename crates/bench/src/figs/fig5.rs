//! Figure 5: throughput as input streams lag.
//!
//! "We feed LMerge three input streams with 20% disorder each, with
//! StableFreq set at 0.1%. Element lifetimes are kept at 40 seconds. We
//! simulate lag on two of the input streams … as lag increases, LMerge
//! performance improves since it can directly drop tuples from the lagging
//! streams. … throughput gains are higher if more streams are lagging."

use crate::report::MetricsRecord;
use crate::{bench_threads, drive_wallclock, run_points, scale_events, Report, VariantKind};
use lmerge_gen::timing::add_lag;
use lmerge_gen::{assign_times, diverge, generate, DivergenceConfig, GenConfig};

/// One sweep point.
pub struct Fig5Row {
    /// Injected lag (seconds) on the lagging streams.
    pub lag_s: u64,
    /// Input-element throughput with one stream lagging.
    pub eps_one_lagging: f64,
    /// Input-element throughput with two streams lagging.
    pub eps_two_lagging: f64,
    /// Elements the merge dropped (`MergeStats::dropped`) with one stream
    /// lagging: the cheap path lag opens, counted rather than timed.
    pub dropped_one: u64,
    /// The same count with two streams lagging.
    pub dropped_two: u64,
    /// Headline record of the one-lagging run.
    pub rec_one: MetricsRecord,
    /// Headline record of the two-lagging run.
    pub rec_two: MetricsRecord,
}

fn workload(events: usize) -> GenConfig {
    GenConfig {
        num_events: events,
        disorder: 0.20,
        disorder_window_ms: 5_000,
        stable_freq: 0.001,
        event_duration_ms: 40_000, // "element lifetimes are kept at 40 seconds"
        max_gap_ms: 20,
        payload_len: 100,
        ..Default::default()
    }
}

/// Run the lag sweep serially (the test entry point).
pub fn run(events: usize) -> Vec<Fig5Row> {
    run_with_threads(events, 1)
}

/// Run the lag sweep, one worker per lag point; row order matches serial.
pub fn run_with_threads(events: usize, threads: usize) -> Vec<Fig5Row> {
    const LAGS: [u64; 6] = [0, 1, 2, 3, 4, 5];
    let reference = generate(&workload(events));
    let div = DivergenceConfig::default();
    let copies: Vec<_> = (0..3)
        .map(|i| diverge(&reference.elements, &div, i))
        .collect();
    let rate = 50_000.0;

    run_points(LAGS.len(), threads, |pi| {
        let lag_s = LAGS[pi];
        let measure = |lagging: usize| {
            let timed: Vec<_> = copies
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    let mut t = assign_times(c, rate);
                    if i >= 3 - lagging {
                        add_lag(&mut t, lag_s * 1_000_000);
                    }
                    t
                })
                .collect();
            let mut lm = VariantKind::R3Plus.build(3);
            let run = drive_wallclock(lm.as_mut(), &timed);
            (MetricsRecord::from_wallclock(&run), run.stats.dropped)
        };
        let ((rec_one, dropped_one), (rec_two, dropped_two)) = (measure(1), measure(2));
        Fig5Row {
            lag_s,
            eps_one_lagging: rec_one.throughput_eps,
            eps_two_lagging: rec_two.throughput_eps,
            dropped_one,
            dropped_two,
            rec_one,
            rec_two,
        }
    })
}

/// Build the printable report.
pub fn report() -> Report {
    let events = scale_events(20_000);
    let rows = run_with_threads(events, bench_threads());
    let mut report = Report::new(
        "fig5",
        "Throughput vs stream lag (LMR3+, 3 inputs, 20% disorder)",
        &["lag(s)", "1 lagging", "2 lagging"],
    );
    for r in &rows {
        report.row(&[
            r.lag_s.to_string(),
            crate::report::fmt_eps(r.eps_one_lagging),
            crate::report::fmt_eps(r.eps_two_lagging),
        ]);
    }
    report.note(format!(
        "{events} events/stream, StableFreq 0.1%, lifetime 40 s"
    ));
    report.note("expected: throughput rises with lag; higher with 2 streams lagging");
    for r in &rows {
        report.metric(format!("1lag@{}s", r.lag_s), r.rec_one);
        report.metric(format!("2lag@{}s", r.lag_s), r.rec_two);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The mechanism behind the throughput gain, counted rather than timed
    /// so that a loaded host cannot fail it: a lagging replica's elements
    /// arrive behind the output stable point and are dropped, not merged.
    #[test]
    fn lag_turns_merge_work_into_drops() {
        let rows = run(6_000);
        let first = &rows[0];
        for pair in rows.windows(2) {
            assert!(pair[1].dropped_one >= pair[0].dropped_one);
            assert!(pair[1].dropped_two >= pair[0].dropped_two);
        }
        for r in &rows[1..] {
            assert!(
                r.dropped_one > first.dropped_one,
                "lag {} s drops more than none: {} vs {}",
                r.lag_s,
                r.dropped_one,
                first.dropped_one
            );
            assert!(
                r.dropped_two > r.dropped_one,
                "two lagging streams drop more than one at lag {} s",
                r.lag_s
            );
        }
    }
}
