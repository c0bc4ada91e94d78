//! Generator configuration: the paper's Section VI-B parameters.

/// Parameters of the synthetic stream generator.
///
/// Quotes are from Section VI-B. Application time is in milliseconds.
#[derive(Clone, Debug)]
pub struct GenConfig {
    /// Number of insert elements to produce ("between 200K and 400K").
    pub num_events: usize,
    /// "The probability that an element in the stream is a stable()
    /// element. … The default value of this parameter is 1%."
    pub stable_freq: f64,
    /// "The lifetime of each event." Default chosen so "around 10K elements
    /// are active at any point in time": with the default gap averaging
    /// 10 s, a 10 000-element active set needs ~`10_000 × 10_000` ms.
    pub event_duration_ms: i64,
    /// "The maximum application-time gap between consecutive elements. The
    /// gap is chosen randomly from the range [0, MaxGap]. We set MaxGap to
    /// 20 seconds."
    pub max_gap_ms: i64,
    /// Minimum gap between consecutive elements. Zero (the paper's setting)
    /// permits duplicate timestamps; set to 1 for the strictly increasing
    /// streams the R0 case requires.
    pub min_gap_ms: i64,
    /// "The fraction of disordered elements. Disorder is created by moving
    /// Vs values back by some amount. … The default value is 20%."
    pub disorder: f64,
    /// How far back a disordered `Vs` may be moved (bounds punctuation).
    pub disorder_window_ms: i64,
    /// Payload body size ("a randomly generated 1000-byte string").
    pub payload_len: usize,
    /// Payload keys are drawn from `[0, key_range]` ("an integer in the
    /// interval [0, 400]").
    pub key_range: i32,
    /// Probability that an event is emitted twice (an exact duplicate in
    /// the logical TDB). Non-zero values make the TDB a true multiset: only
    /// the R4 algorithm may merge such streams.
    pub duplicate_prob: f64,
    /// Whether the stream ends with `stable(∞)` (a complete stream).
    pub finalize: bool,
    /// RNG seed: every workload is reproducible.
    pub seed: u64,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            num_events: 200_000,
            stable_freq: 0.01,
            // Default active set ≈ duration / mean-gap = 10_000 events
            // with mean gap 10s ⇒ duration 100_000s; scaled down by using
            // a 1s mean gap in tests. Benches set this explicitly.
            event_duration_ms: 100_000_000,
            max_gap_ms: 20_000,
            min_gap_ms: 0,
            disorder: 0.20,
            disorder_window_ms: 60_000,
            payload_len: 1000,
            key_range: 400,
            duplicate_prob: 0.0,
            finalize: true,
            seed: 42,
        }
    }
}

impl GenConfig {
    /// A small, fast configuration for unit tests.
    pub fn small(num_events: usize, seed: u64) -> GenConfig {
        GenConfig {
            num_events,
            event_duration_ms: 500,
            max_gap_ms: 20,
            disorder_window_ms: 100,
            payload_len: 16,
            seed,
            ..Default::default()
        }
    }

    /// Builder-style setter for the disorder fraction.
    #[must_use]
    pub fn with_disorder(mut self, disorder: f64) -> GenConfig {
        self.disorder = disorder;
        self
    }

    /// Builder-style setter for `StableFreq`.
    #[must_use]
    pub fn with_stable_freq(mut self, f: f64) -> GenConfig {
        self.stable_freq = f;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = GenConfig::default();
        assert_eq!(c.stable_freq, 0.01, "1% stable elements");
        assert_eq!(c.max_gap_ms, 20_000, "MaxGap 20 seconds");
        assert_eq!(c.disorder, 0.20, "20% disorder");
        assert_eq!(c.payload_len, 1000);
        assert_eq!(c.key_range, 400);
    }

    #[test]
    fn builders_compose() {
        let c = GenConfig::small(10, 7)
            .with_disorder(0.5)
            .with_stable_freq(0.001);
        assert_eq!(c.num_events, 10);
        assert_eq!(c.disorder, 0.5);
        assert_eq!(c.stable_freq, 0.001);
        assert_eq!(c.seed, 7);
    }
}
