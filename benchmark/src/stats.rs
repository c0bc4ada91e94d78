//! Order statistics used for every reported number.

/// The `q`-quantile (`0.0..=1.0`) of `sorted` by linear interpolation
/// between closest ranks (the "inclusive" method: `q = 0` is the minimum,
/// `q = 1` the maximum). Panics on an empty slice: callers decide what an
/// absent sample means, not this function.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The `q`-quantile of an unsorted sample (sorts a copy); 0 for an empty
/// one, which is what an absent measurement reports as.
pub fn quantile(sample: &[f64], q: f64) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    let mut s = sample.to_vec();
    sort(&mut s);
    quantile_sorted(&s, q)
}

/// Sort a sample in place (total order; NaN sorts last).
pub fn sort(sample: &mut [f64]) {
    sample.sort_by(f64::total_cmp);
}

/// The quartiles of a sample exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the "exclusive"
/// method: rank `i·(n+1)/4`, clamped into the sample), which is the rule
/// the benchmark's acceptance check applies to run-to-run spread.
pub fn quartiles_exclusive(sample: &[f64]) -> [f64; 3] {
    assert!(sample.len() >= 2, "quartiles need at least two values");
    let mut s = sample.to_vec();
    sort(&mut s);
    let n = s.len();
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        // j = i·(n+1) div 4, delta = i·(n+1) mod 4, j clamped to [1, n-1].
        let m = i * (n + 1);
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// Summary of one repetition-level sample: what the run prints next to
/// each median.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    /// `(Q3 − Q1) / median`: the spread the acceptance check compares with
    /// a metric's bound (there across runs, here across repetitions).
    /// 0 when the median is 0.
    pub spread: f64,
}

/// Median, quartiles and spread of a sample of repetitions. A single
/// value is its own median with no spread.
pub fn summarize(sample: &[f64]) -> Summary {
    let [q1, median, q3] = match sample {
        [] => [0.0; 3],
        [only] => [*only; 3],
        _ => quartiles_exclusive(sample),
    };
    Summary {
        n: sample.len(),
        q1,
        median,
        q3,
        spread: if median == 0.0 {
            0.0
        } else {
            (q3 - q1) / median.abs()
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile_sorted(&s, 0.0), 1.0);
        assert_eq!(quantile_sorted(&s, 0.5), 3.0);
        assert_eq!(quantile_sorted(&s, 1.0), 5.0);
        assert_eq!(quantile_sorted(&s, 0.25), 2.0);
        assert!((quantile_sorted(&s, 0.95) - 4.8).abs() < 1e-12);
        assert_eq!(quantile_sorted(&[7.0], 0.95), 7.0);
        // Out-of-range q clamps rather than indexing past the sample.
        assert_eq!(quantile_sorted(&s, 1.5), 5.0);
        assert_eq!(quantile_sorted(&s, -1.0), 1.0);
        assert_eq!(quantile(&[5.0, 1.0, 3.0], 0.5), 3.0);
        assert_eq!(quantile(&[], 0.99), 0.0);
    }

    #[test]
    fn exclusive_quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles_exclusive(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(
            quartiles_exclusive(&[5.0, 1.0, 4.0, 2.0, 3.0]),
            [1.5, 3.0, 4.5]
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles_exclusive(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn summary_reports_median_quartiles_and_relative_spread() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&ten);
        assert_eq!((s.n, s.q1, s.median, s.q3), (10, 2.75, 5.5, 8.25));
        assert!((s.spread - 1.0).abs() < 1e-12);
        // Even sample: the median is the midpoint.
        assert_eq!(summarize(&[4.0, 1.0, 3.0, 2.0]).median, 2.5);
        assert_eq!(summarize(&[3.0, 3.0, 3.0, 3.0]).spread, 0.0);
        assert_eq!(summarize(&[0.0, 0.0, 0.0]).spread, 0.0);
        let one = summarize(&[9.0]);
        assert_eq!(
            (one.n, one.q1, one.median, one.q3, one.spread),
            (1, 9.0, 9.0, 9.0, 0.0)
        );
        assert_eq!(summarize(&[]).n, 0);
    }
}
