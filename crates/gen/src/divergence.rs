//! Physical divergence: many mutually consistent copies of one stream.
//!
//! "In many applications, the 'same' logical stream may present itself
//! physically in multiple physical forms" (Section I). Given a reference
//! stream, this module derives copies that differ in
//!
//! * **order** — data elements are shuffled within punctuation windows
//!   (moving an insert across a `stable` that freezes it would be illegal,
//!   so shuffling stays inside each window);
//! * **composition** — some inserts are replaced by a *provisional* insert
//!   (a longer or infinite end time) plus a later `adjust` to the true end:
//!   the revision-path divergence of Table I;
//! * **punctuation** — each copy keeps only a random subset of the
//!   reference's `stable` elements (progress is reported at different
//!   instants on different copies);
//! * optionally **content** — with `drop_prob > 0`, a copy omits some
//!   inserts entirely (the missing-elements regime of Section V-C; off by
//!   default because dropped elements make copies only *segment*-consistent).

use lmerge_temporal::{Element, Time, Value};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Knobs for the divergence transformer.
#[derive(Clone, Copy, Debug)]
pub struct DivergenceConfig {
    /// Probability that an insert takes a provisional-then-adjust path.
    pub revision_prob: f64,
    /// Probability that a provisional end is `∞` (otherwise it is the true
    /// end plus a random extension).
    pub provisional_inf_prob: f64,
    /// Maximum extension of a finite provisional end (application ms).
    pub provisional_extra_ms: i64,
    /// Probability that each non-final `stable` is kept by this copy.
    pub stable_keep_prob: f64,
    /// Probability that an insert is dropped from this copy entirely.
    pub drop_prob: f64,
    /// Base seed; each copy uses `seed + copy_index`.
    pub seed: u64,
}

impl Default for DivergenceConfig {
    fn default() -> Self {
        DivergenceConfig {
            revision_prob: 0.3,
            provisional_inf_prob: 0.5,
            provisional_extra_ms: 30_000,
            stable_keep_prob: 0.7,
            drop_prob: 0.0,
            seed: 7,
        }
    }
}

/// Derive physically divergent copy number `copy_index` of `reference`.
///
/// The result reconstitutes to the same TDB as the reference (when
/// `drop_prob` is zero) and never violates the punctuation it emits, so a
/// set of copies is mutually consistent by construction.
///
/// ```
/// use lmerge_gen::{diverge, generate, DivergenceConfig, GenConfig};
/// use lmerge_temporal::reconstitute::tdb_of;
///
/// let reference = generate(&GenConfig::small(50, 1));
/// let copy_a = diverge(&reference.elements, &DivergenceConfig::default(), 0);
/// let copy_b = diverge(&reference.elements, &DivergenceConfig::default(), 1);
/// assert_ne!(copy_a, copy_b);                       // physically different
/// assert_eq!(tdb_of(&copy_a).unwrap(), reference.tdb()); // logically equal
/// assert_eq!(tdb_of(&copy_b).unwrap(), reference.tdb());
/// ```
pub fn diverge(
    reference: &[Element<Value>],
    cfg: &DivergenceConfig,
    copy_index: u64,
) -> Vec<Element<Value>> {
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(copy_index));
    let mut out = Vec::with_capacity(reference.len() + reference.len() / 2);

    // Process one punctuation window (the data elements between two
    // stables) at a time.
    let mut pass = WindowPass::default();
    let mut start = 0;
    for (i, e) in reference.iter().enumerate() {
        if let Element::Stable(t) = e {
            pass.flush(&reference[start..i], &mut rng, cfg, &mut out);
            start = i + 1;
            let is_final = *t == Time::INFINITY;
            if is_final || rng.random_bool(cfg.stable_keep_prob.clamp(0.0, 1.0)) {
                out.push(Element::Stable(*t));
            }
        }
    }
    pass.flush(&reference[start..], &mut rng, cfg, &mut out);
    out
}

/// Index buffers for one window, reused across windows. Every entry is a
/// position in the window.
#[derive(Default)]
struct WindowPass {
    /// The shuffled slots: slot `s` holds the next element of the key of
    /// the element at `slots[s]`.
    slots: Vec<usize>,
    /// Positions sorted by `(Vs, payload)`, then by position: each key's
    /// elements form one run, in window order.
    by_key: Vec<usize>,
    /// For each position, where its key's run starts in `by_key` and how
    /// long it is.
    run: Vec<(usize, usize)>,
    /// For each run start, how many of its elements are already placed.
    taken: Vec<usize>,
    /// The synthetic adjusts, emitted after every other element.
    adjusts: Vec<Element<Value>>,
}

impl WindowPass {
    fn flush(
        &mut self,
        window: &[Element<Value>],
        rng: &mut StdRng,
        cfg: &DivergenceConfig,
        out: &mut Vec<Element<Value>>,
    ) {
        if window.is_empty() {
            return;
        }
        let n = window.len();
        // Order divergence: shuffle the window, but keep the *relative* order
        // of elements sharing a (Vs, Payload) key — an adjust must still follow
        // its insert, and adjust chains must stay chained (their `Vold` values
        // thread through the sequence). The shuffle permutes positions; it
        // draws the same numbers it would draw permuting the elements.
        self.slots.clear();
        self.slots.extend(0..n);
        self.slots.shuffle(rng);
        self.by_key.clear();
        self.by_key.extend(0..n);
        self.by_key
            .sort_unstable_by(|&a, &b| window[a].key().cmp(&window[b].key()).then(a.cmp(&b)));
        self.run.resize(n, (0, 0));
        let mut at = 0;
        for run in self
            .by_key
            .chunk_by(|&a, &b| window[a].key() == window[b].key())
        {
            for &pos in run {
                self.run[pos] = (at, run.len());
            }
            at += run.len();
        }
        self.taken.clear();
        self.taken.resize(n, 0);

        // Composition divergence: provisional insert + later adjust. Applied
        // only to inserts whose key carries no other elements in the window —
        // splicing a synthetic adjust into an existing chain would break it.
        for &slot in &self.slots {
            let (run_start, run_len) = self.run[slot];
            let e = &window[self.by_key[run_start + self.taken[run_start]]];
            self.taken[run_start] += 1;
            match e {
                Element::Insert(_)
                    if cfg.drop_prob > 0.0 && rng.random_bool(cfg.drop_prob.min(1.0)) =>
                {
                    // Dropped from this copy: another input covers it.
                }
                Element::Insert(ev)
                    if run_len == 1 && rng.random_bool(cfg.revision_prob.clamp(0.0, 1.0)) =>
                {
                    let provisional = if rng.random_bool(cfg.provisional_inf_prob.clamp(0.0, 1.0)) {
                        Time::INFINITY
                    } else {
                        ev.ve
                            .saturating_add(rng.random_range(1..=cfg.provisional_extra_ms.max(1)))
                    };
                    out.push(Element::insert(ev.payload.clone(), ev.vs, provisional));
                    self.adjusts.push(Element::adjust(
                        ev.payload.clone(),
                        ev.vs,
                        provisional,
                        ev.ve,
                    ));
                }
                other => out.push(other.clone()),
            }
        }
        // Adjusts go after every insert in the window.
        out.append(&mut self.adjusts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GenConfig;
    use crate::generator::generate;
    use lmerge_temporal::reconstitute::tdb_of;

    fn cfg() -> DivergenceConfig {
        DivergenceConfig::default()
    }

    #[test]
    fn copies_reconstitute_to_the_reference_tdb() {
        let r = generate(&GenConfig::small(300, 11));
        for copy in 0..4 {
            let d = diverge(&r.elements, &cfg(), copy);
            let tdb = tdb_of(&d).unwrap_or_else(|e| panic!("copy {copy} ill-formed: {e}"));
            assert_eq!(tdb, r.tdb(), "copy {copy} diverged logically");
        }
    }

    #[test]
    fn copies_differ_physically() {
        let r = generate(&GenConfig::small(300, 12));
        let a = diverge(&r.elements, &cfg(), 0);
        let b = diverge(&r.elements, &cfg(), 1);
        assert_ne!(a, b, "copies should differ in physical form");
    }

    #[test]
    fn copies_are_deterministic() {
        let r = generate(&GenConfig::small(100, 13));
        assert_eq!(
            diverge(&r.elements, &cfg(), 2),
            diverge(&r.elements, &cfg(), 2)
        );
    }

    #[test]
    fn revision_paths_produce_adjusts() {
        let r = generate(&GenConfig::small(200, 14));
        let d = diverge(&r.elements, &cfg(), 0);
        assert!(
            d.iter().any(|e| e.is_adjust()),
            "revision_prob 0.3 over 200 events must stage adjusts"
        );
    }

    #[test]
    fn zero_revision_prob_keeps_insert_only() {
        let r = generate(&GenConfig::small(200, 15));
        let c = DivergenceConfig {
            revision_prob: 0.0,
            ..cfg()
        };
        let d = diverge(&r.elements, &c, 0);
        assert!(d.iter().all(|e| !e.is_adjust()));
    }

    #[test]
    fn final_stable_always_kept() {
        let r = generate(&GenConfig::small(50, 16));
        let c = DivergenceConfig {
            stable_keep_prob: 0.0,
            ..cfg()
        };
        let d = diverge(&r.elements, &c, 0);
        let stables: Vec<_> = d.iter().filter(|e| e.is_stable()).collect();
        assert_eq!(stables, vec![&Element::Stable(Time::INFINITY)]);
    }

    #[test]
    fn dropped_inserts_shrink_the_copy() {
        let r = generate(&GenConfig::small(200, 17));
        let c = DivergenceConfig {
            drop_prob: 0.2,
            revision_prob: 0.0,
            ..cfg()
        };
        let d = diverge(&r.elements, &c, 0);
        let kept = d.iter().filter(|e| e.is_insert()).count();
        assert!(
            kept < 195 && kept > 120,
            "expected ~20% dropped, kept {kept}"
        );
    }

    #[test]
    fn copies_survive_shuffling_across_many_seeds() {
        // Property-style sweep: every copy of every seed stays equivalent.
        for seed in 0..5u64 {
            let r = generate(&GenConfig::small(80, 100 + seed));
            for copy in 0..3 {
                let d = diverge(&r.elements, &cfg(), copy);
                assert_eq!(tdb_of(&d).unwrap(), r.tdb());
            }
        }
    }
}
