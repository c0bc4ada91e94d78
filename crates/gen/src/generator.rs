//! The reference stream generator (paper Section VI-B).
//!
//! Produces an insert-only physical stream with controlled disorder and
//! punctuation — the role played in the paper by the commercial test stream
//! generator of \[26\]. Downstream sub-queries (the engine's `IntervalCount`)
//! turn disorder into `adjust` elements, and the [`crate::divergence`]
//! transformer turns one reference stream into many physically different,
//! mutually consistent copies.

use crate::config::GenConfig;
use bytes::Bytes;
use lmerge_temporal::reconstitute::tdb_of;
use lmerge_temporal::{Element, Tdb, Time, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A generated reference stream.
#[derive(Clone, Debug)]
pub struct RefStream {
    /// The physical element sequence (inserts + stables).
    pub elements: Vec<Element<Value>>,
}

impl RefStream {
    /// The logical TDB the stream reconstitutes to, derived from the
    /// elements on each call (most feeds never need it).
    pub fn tdb(&self) -> Tdb<Value> {
        tdb_of(&self.elements).expect("a generated stream is well formed")
    }
}

/// Build a payload whose body starts with a unique sequence number, padded
/// to the configured length — the paper's "randomly generated 1000-byte
/// string", which is unique with overwhelming probability; making
/// uniqueness explicit keeps `(Vs, Payload)` an honest key for R3.
fn payload(seq: u64, key: i32, len: usize) -> Value {
    // One allocation: the shared buffer is filled in place, then its head
    // overwritten (it is not shared yet, so `make_mut` copies nothing).
    let mut body: Arc<[u8]> = std::iter::repeat_n((key % 251) as u8, len.max(8)).collect();
    Arc::make_mut(&mut body)[..8].copy_from_slice(&seq.to_le_bytes());
    Value {
        key,
        body: Bytes::from(body),
    }
}

/// Generate a reference stream per the configuration.
///
/// ```
/// use lmerge_gen::{generate, GenConfig};
///
/// let stream = generate(&GenConfig::small(100, 7));
/// assert_eq!(stream.tdb().len(), 100);
/// ```
pub fn generate(cfg: &GenConfig) -> RefStream {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut elements = Vec::with_capacity(cfg.num_events + cfg.num_events / 50 + 1);
    let mut now: i64 = cfg.disorder_window_ms; // head-room for back-shifts
    let mut last_stable = Time::MIN;
    let mut inserts_since_stable = 0usize;

    for seq in 0..cfg.num_events {
        now += rng.random_range(cfg.min_gap_ms..=cfg.max_gap_ms.max(cfg.min_gap_ms));
        // Disorder: move Vs back by up to the disorder window, but never
        // behind the punctuation already emitted.
        let vs = if cfg.disorder > 0.0 && rng.random_bool(cfg.disorder.min(1.0)) {
            let back = rng.random_range(1..=cfg.disorder_window_ms.max(1));
            let floor = match last_stable {
                Time::MIN => 0,
                t => t.0,
            };
            Time((now - back).max(floor))
        } else {
            Time(now)
        };
        let ve = vs.saturating_add(cfg.event_duration_ms.max(1));
        let p = payload(
            seq as u64,
            rng.random_range(0..=cfg.key_range),
            cfg.payload_len,
        );
        elements.push(Element::insert(p.clone(), vs, ve));
        inserts_since_stable += 1;
        // Exact duplicates exercise the R4 multiset semantics.
        if cfg.duplicate_prob > 0.0 && rng.random_bool(cfg.duplicate_prob.min(1.0)) {
            elements.push(Element::insert(p, vs, ve));
        }

        // Punctuation: an element is stable() with probability StableFreq,
        // "at least one insert … between consecutive stable() elements".
        if inserts_since_stable >= 1
            && cfg.stable_freq > 0.0
            && rng.random_bool(cfg.stable_freq.min(1.0))
        {
            // Future Vs values are ≥ now − window, so this is safe.
            let s = Time(now - cfg.disorder_window_ms);
            if s > last_stable {
                elements.push(Element::Stable(s));
                last_stable = s;
                inserts_since_stable = 0;
            }
        }
    }

    if cfg.finalize {
        elements.push(Element::Stable(Time::INFINITY));
    }
    RefStream { elements }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmerge_temporal::reconstitute::tdb_of;

    #[test]
    fn stream_is_well_formed_and_matches_tdb() {
        let r = generate(&GenConfig::small(500, 1));
        let tdb = tdb_of(&r.elements).expect("well-formed stream");
        assert_eq!(tdb.len(), 500);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(&GenConfig::small(100, 9));
        let b = generate(&GenConfig::small(100, 9));
        assert_eq!(a.elements, b.elements);
        let c = generate(&GenConfig::small(100, 10));
        assert_ne!(a.elements, c.elements);
    }

    #[test]
    fn disorder_fraction_is_respected() {
        let ordered = generate(&GenConfig::small(2000, 3).with_disorder(0.0));
        let disordered = generate(&GenConfig::small(2000, 3).with_disorder(0.5));
        let count_inversions = |elems: &[Element<Value>]| {
            let mut last = Time::MIN;
            let mut inv = 0;
            for e in elems {
                if let Element::Insert(ev) = e {
                    if ev.vs < last {
                        inv += 1;
                    }
                    last = last.max(ev.vs);
                }
            }
            inv
        };
        assert_eq!(count_inversions(&ordered.elements), 0);
        let inv = count_inversions(&disordered.elements);
        assert!(
            (600..=1300).contains(&inv),
            "~50% of 2000 events disordered (some back-shifts are no-ops), got {inv}"
        );
    }

    #[test]
    fn stable_frequency_is_respected() {
        let r = generate(&GenConfig::small(5000, 4).with_stable_freq(0.01));
        let stables = r.elements.iter().filter(|e| e.is_stable()).count();
        assert!(
            (20..=90).contains(&stables),
            "~1% of 5000 plus the final stable, got {stables}"
        );
    }

    #[test]
    fn zero_stable_freq_yields_only_final_punctuation() {
        let r = generate(&GenConfig::small(100, 5).with_stable_freq(0.0));
        assert_eq!(r.elements.iter().filter(|e| e.is_stable()).count(), 1);
        assert!(r.elements.last().unwrap().is_stable());
    }

    #[test]
    fn payloads_are_unique() {
        let r = generate(&GenConfig::small(1000, 6));
        let mut seen = std::collections::HashSet::new();
        for e in &r.elements {
            if let Element::Insert(ev) = e {
                assert!(seen.insert(ev.payload.clone()), "duplicate payload");
            }
        }
    }

    #[test]
    fn keys_are_in_configured_range() {
        let r = generate(&GenConfig::small(500, 7));
        for e in &r.elements {
            if let Element::Insert(ev) = e {
                assert!((0..=400).contains(&ev.payload.key));
            }
        }
    }

    #[test]
    fn payload_len_is_honoured() {
        let cfg = GenConfig {
            payload_len: 1000,
            ..GenConfig::small(10, 8)
        };
        let r = generate(&cfg);
        for e in &r.elements {
            if let Element::Insert(ev) = e {
                assert_eq!(ev.payload.body.len(), 1000);
            }
        }
    }
}

#[cfg(test)]
mod duplicate_tests {
    use super::*;
    use crate::config::GenConfig;

    #[test]
    fn duplicates_appear_in_tdb_as_multiset() {
        let mut cfg = GenConfig::small(500, 33);
        cfg.duplicate_prob = 0.2;
        let r = generate(&cfg);
        let dupes = r.tdb().iter().filter(|(_, _, count)| *count > 1).count();
        assert!(
            (50..=160).contains(&dupes),
            "~20% duplicated events, got {dupes}"
        );
        let inserts = r.elements.iter().filter(|e| e.is_insert()).count();
        assert_eq!(inserts, 500 + dupes);
    }
}
