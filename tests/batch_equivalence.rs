//! Batched-push equivalence: `push_batch` must be observationally identical
//! to pushing the same elements one at a time — same statistics, same
//! per-input counters, same logical output — for every variant, including
//! the R3/R4 overrides with their hoisted gating and O(1) frozen-batch
//! discard.
//!
//! Seeded random loops in the style of `robustness.rs`: each case derives
//! from a fixed master seed and the failing case number prints on panic.
//! Outputs of the indexed variants may differ in hash-iteration order
//! between two operator instances, so the general comparison checks
//! order-insensitive equality plus the reconstituted TDB; the restricted
//! variants (R0–R2) are compared element-for-element.

use lmerge::core::{
    LMergeR0, LMergeR1, LMergeR2, LMergeR3, LMergeR3Naive, LMergeR4, LogicalMerge, MergePolicy,
    RobustnessPolicy,
};
use lmerge::temporal::reconstitute::Reconstituter;
use lmerge::temporal::{Element, StreamId};
use rand::prelude::*;

type E = Element<&'static str>;

/// An arbitrary element over a tiny domain (collisions and stale data are
/// common; the general variants must absorb them identically either way).
fn arb_element(rng: &mut StdRng) -> E {
    let payload = ["a", "b", "c"][rng.random_range(0usize..3)];
    let t = |rng: &mut StdRng| rng.random_range(0i64..24);
    match rng.random_range(0u32..5) {
        0 | 1 => {
            let vs = t(rng);
            Element::insert(payload, vs, vs + t(rng) + 1)
        }
        2 => {
            let vs = t(rng);
            Element::adjust(payload, vs, vs + t(rng), vs + t(rng))
        }
        _ => Element::stable(t(rng)),
    }
}

/// A well-formed ordered insert-only feed (strictly increasing `Vs`), as
/// the R0 contract requires; stables interleave.
fn ordered_feed(rng: &mut StdRng) -> Vec<(u8, E)> {
    let len = rng.random_range(1usize..150);
    let mut vs = 0i64;
    let mut feed = Vec::new();
    for _ in 0..len {
        vs += rng.random_range(1i64..4);
        let s = rng.random_range(0u8..3);
        if rng.random_range(0u32..8) == 0 {
            feed.push((s, Element::stable(vs - 1)));
        } else {
            feed.push((s, Element::insert("p", vs, vs + 10)));
        }
    }
    feed
}

fn garbage_feed(rng: &mut StdRng) -> Vec<(u8, E)> {
    let len = rng.random_range(1usize..150);
    (0..len)
        .map(|_| (rng.random_range(0u8..3), arb_element(rng)))
        .collect()
}

/// Drive per-element.
fn drive_elements(lm: &mut dyn LogicalMerge<&'static str>, feed: &[(u8, E)]) -> Vec<E> {
    let mut out = Vec::new();
    for (s, e) in feed {
        lm.push(StreamId(u32::from(*s)), e, &mut out);
    }
    out
}

/// Drive the same feed via `push_batch`, splitting each input run into
/// random-sized batches (including empty ones). Consecutive elements from
/// the same input form one run; runs are delivered in feed order, so the
/// element sequence seen by the operator is identical.
fn drive_batches(
    lm: &mut dyn LogicalMerge<&'static str>,
    feed: &[(u8, E)],
    rng: &mut StdRng,
) -> Vec<E> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < feed.len() {
        let s = feed[i].0;
        let mut run = Vec::new();
        while i < feed.len() && feed[i].0 == s {
            run.push(feed[i].1.clone());
            i += 1;
        }
        let mut j = 0usize;
        while j < run.len() {
            let take = rng.random_range(0usize..8).min(run.len() - j);
            lm.push_batch(StreamId(u32::from(s)), &run[j..j + take], &mut out);
            j += take.max(1); // empty batches are legal but must not stall
            if take == 0 {
                lm.push(StreamId(u32::from(s)), &run[j - 1], &mut out);
            }
        }
    }
    out
}

/// Order-insensitive output fingerprint.
fn sorted_debug(out: &[E]) -> Vec<String> {
    let mut v: Vec<String> = out.iter().map(|e| format!("{e:?}")).collect();
    v.sort();
    v
}

/// Reconstitute (asserting well-formedness) and return the final TDB as a
/// sorted debug string.
fn tdb_fingerprint(out: &[E], case: usize, path: &str) -> String {
    let mut rec: Reconstituter<&str> = Reconstituter::new();
    for e in out {
        rec.apply(e)
            .unwrap_or_else(|err| panic!("case {case} ({path}): ill-formed output: {err:?}"));
    }
    format!("{:?}", rec.tdb())
}

/// Compare the two drive modes for one operator factory.
fn assert_equivalent(
    mk: &dyn Fn() -> Box<dyn LogicalMerge<&'static str>>,
    feed: &[(u8, E)],
    split_rng: &mut StdRng,
    exact: bool,
    case: usize,
) {
    let mut by_element = mk();
    let out_e = drive_elements(by_element.as_mut(), feed);
    let mut by_batch = mk();
    let out_b = drive_batches(by_batch.as_mut(), feed, split_rng);

    assert_eq!(
        by_element.stats(),
        by_batch.stats(),
        "case {case}: stats diverge"
    );
    assert_eq!(
        by_element.input_counters(),
        by_batch.input_counters(),
        "case {case}: per-input counters diverge"
    );
    assert_eq!(
        by_element.max_stable(),
        by_batch.max_stable(),
        "case {case}: stable point diverges"
    );
    if exact {
        assert_eq!(out_e, out_b, "case {case}: outputs diverge");
    } else {
        assert_eq!(
            sorted_debug(&out_e),
            sorted_debug(&out_b),
            "case {case}: output multisets diverge"
        );
        assert_eq!(
            tdb_fingerprint(&out_e, case, "per-element"),
            tdb_fingerprint(&out_b, case, "batched"),
            "case {case}: reconstituted TDBs diverge"
        );
    }
}

#[test]
fn restricted_variants_match_exactly() {
    let mut rng = StdRng::seed_from_u64(0xBA7C_0001);
    for case in 0..200 {
        let feed = ordered_feed(&mut rng);
        let split_seed = rng.next_u64();
        let mks: [&dyn Fn() -> Box<dyn LogicalMerge<&'static str>>; 3] = [
            &|| Box::new(LMergeR0::new(3)),
            &|| Box::new(LMergeR1::new(3)),
            &|| Box::new(LMergeR2::new(3)),
        ];
        for mk in mks {
            let mut split_rng = StdRng::seed_from_u64(split_seed);
            assert_equivalent(mk, &feed, &mut split_rng, true, case);
        }
    }
}

#[test]
fn indexed_variants_match_under_garbage() {
    let mut rng = StdRng::seed_from_u64(0xBA7C_0002);
    for case in 0..200 {
        let feed = garbage_feed(&mut rng);
        let split_seed = rng.next_u64();
        // The guarded rows use an entry bound small enough to trip inside
        // a batch: the demotion must land on the same element either way.
        let mks: [&dyn Fn() -> Box<dyn LogicalMerge<&'static str>>; 6] = [
            &|| Box::new(LMergeR3::new(3)),
            &|| Box::new(LMergeR3::with_policy(3, MergePolicy::eager())),
            &|| Box::new(LMergeR3Naive::new(3)),
            &|| Box::new(LMergeR4::new(3)),
            &|| {
                Box::new(LMergeR3::with_policy(
                    3,
                    MergePolicy {
                        robustness: RobustnessPolicy::guarded(4, 2),
                        ..MergePolicy::default()
                    },
                ))
            },
            &|| {
                Box::new(LMergeR4::with_robustness(
                    3,
                    RobustnessPolicy::guarded(4, 2),
                ))
            },
        ];
        for mk in mks {
            let mut split_rng = StdRng::seed_from_u64(split_seed);
            assert_equivalent(mk, &feed, &mut split_rng, false, case);
        }
    }
}

/// The O(1) discard path specifically: a lagging replica replays a wholly
/// frozen prefix in data-only batches. Stats, counters, and output must
/// match the per-element drops exactly.
#[test]
fn frozen_batch_discard_matches_per_element_drops() {
    let stale: Vec<E> = (0..40i64)
        .map(|i| {
            if i % 5 == 4 {
                Element::adjust("a", i, i + 3, i + 4)
            } else {
                Element::insert("a", i, i + 3)
            }
        })
        .collect();
    let mk = || {
        let mut lm: LMergeR3<&'static str> = LMergeR3::new(2);
        let mut out = Vec::new();
        // Input 0 freezes far past the stale range; the index empties.
        lm.push(StreamId(0), &Element::insert("z", 500, 510), &mut out);
        lm.push(StreamId(0), &Element::stable(1_000), &mut out);
        (lm, out.len())
    };

    let (mut by_batch, _) = mk();
    let mut out_b = Vec::new();
    by_batch.push_batch(StreamId(1), &stale, &mut out_b);

    let (mut by_element, _) = mk();
    let mut out_e = Vec::new();
    for e in &stale {
        by_element.push(StreamId(1), e, &mut out_e);
    }

    assert!(out_b.is_empty() && out_e.is_empty(), "everything is stale");
    assert_eq!(by_batch.stats(), by_element.stats());
    assert_eq!(by_batch.stats().dropped, 40);
    assert_eq!(by_batch.input_counters(), by_element.input_counters());
}

/// Detach between batches must not change what the O(1) discard admits:
/// purging a stream can only *shrink* the live index (raise or empty
/// `min_live_vs`), so every batch the fast path drops after a detach is a
/// batch whose elements the per-element path would also have dropped one
/// by one against the purged index.
#[test]
fn frozen_discard_stays_sound_across_detach() {
    let stale_a: Vec<E> = (10..45i64)
        .map(|i| Element::insert("a", i, i + 2))
        .collect();
    let stale_b: Vec<E> = (20..48i64)
        .map(|i| Element::insert("b", i, i + 2))
        .collect();
    let mks: [&dyn Fn() -> Box<dyn LogicalMerge<&'static str>>; 3] = [
        &|| Box::new(LMergeR3::new(2)),
        &|| Box::new(LMergeR3Naive::new(2)),
        &|| Box::new(LMergeR4::new(2)),
    ];
    for mk in mks {
        let drive = |batched: bool| {
            let mut lm = mk();
            let mut out = Vec::new();
            // A live node held only by input 0, above the freeze point.
            lm.push(StreamId(0), &Element::insert("hi", 60, 70), &mut out);
            lm.push(StreamId(0), &Element::stable(50), &mut out);
            lm.push(StreamId(1), &Element::stable(50), &mut out);
            let preamble = out.len();
            let feed =
                |lm: &mut Box<dyn LogicalMerge<&'static str>>, batch: &[E], out: &mut Vec<E>| {
                    if batched {
                        lm.push_batch(StreamId(1), batch, out);
                    } else {
                        for e in batch {
                            lm.push(StreamId(1), e, out);
                        }
                    }
                };
            // Wholly stale batch while the live node still bounds the index.
            feed(&mut lm, &stale_a, &mut out);
            // Detach purges input 0's live entry; the bound only tightens.
            lm.detach(StreamId(0));
            feed(&mut lm, &stale_b, &mut out);
            assert_eq!(out.len(), preamble, "stale batches emit nothing");
            (lm.stats(), lm.input_counters().to_vec(), lm.max_stable())
        };
        assert_eq!(drive(true), drive(false));
    }
}

/// Full equivalence with a detach landing at a random point mid-feed: the
/// batched and per-element drives must agree on stats, counters, output
/// multiset, and reconstituted TDB for the indexed variants.
#[test]
fn detach_mid_feed_matches_per_element() {
    let mut rng = StdRng::seed_from_u64(0xBA7C_0003);
    for case in 0..100 {
        let feed = garbage_feed(&mut rng);
        let cut = rng.random_range(0..=feed.len());
        let split_seed = rng.next_u64();
        let mks: [&dyn Fn() -> Box<dyn LogicalMerge<&'static str>>; 3] = [
            &|| Box::new(LMergeR3::new(3)),
            &|| Box::new(LMergeR3Naive::new(3)),
            &|| Box::new(LMergeR4::new(3)),
        ];
        for mk in mks {
            let mut by_element = mk();
            let mut out_e = drive_elements(by_element.as_mut(), &feed[..cut]);
            by_element.detach(StreamId(2));
            out_e.extend(drive_elements(by_element.as_mut(), &feed[cut..]));

            let mut split_rng = StdRng::seed_from_u64(split_seed);
            let mut by_batch = mk();
            let mut out_b = drive_batches(by_batch.as_mut(), &feed[..cut], &mut split_rng);
            by_batch.detach(StreamId(2));
            out_b.extend(drive_batches(
                by_batch.as_mut(),
                &feed[cut..],
                &mut split_rng,
            ));

            assert_eq!(
                by_element.stats(),
                by_batch.stats(),
                "case {case}: stats diverge after detach"
            );
            assert_eq!(
                by_element.input_counters(),
                by_batch.input_counters(),
                "case {case}: counters diverge after detach"
            );
            assert_eq!(
                sorted_debug(&out_e),
                sorted_debug(&out_b),
                "case {case}: output multisets diverge after detach"
            );
            assert_eq!(
                tdb_fingerprint(&out_e, case, "per-element+detach"),
                tdb_fingerprint(&out_b, case, "batched+detach"),
                "case {case}: TDBs diverge after detach"
            );
        }
    }
}

/// Same discard scenario for R4's multiset index.
#[test]
fn r4_frozen_batch_discard_matches() {
    let stale: Vec<E> = (0..40i64).map(|i| Element::insert("a", i, i + 3)).collect();
    let drive = |batched: bool| {
        let mut lm: LMergeR4<&'static str> = LMergeR4::new(2);
        let mut out = Vec::new();
        lm.push(StreamId(0), &Element::stable(1_000), &mut out);
        out.clear();
        if batched {
            lm.push_batch(StreamId(1), &stale, &mut out);
        } else {
            for e in &stale {
                lm.push(StreamId(1), e, &mut out);
            }
        }
        assert!(out.is_empty());
        (lm.stats(), lm.input_counters().to_vec())
    };
    assert_eq!(drive(true), drive(false));
}
