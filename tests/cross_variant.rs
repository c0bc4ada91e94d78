//! Cross-variant agreement: every LMerge algorithm, fed streams of the
//! class it supports, produces output logically equivalent to the inputs.

use lmerge::core::{new_for_level, LogicalMerge, MergePolicy};
use lmerge::gen::{diverge, generate, DivergenceConfig, GenConfig};
use lmerge::properties::RLevel;
use lmerge::temporal::reconstitute::tdb_of;
use lmerge::temporal::{Element, StreamId, Tdb, Time, Value};

/// Interleave copies round-robin through a merge and reconstitute.
fn merge_round_robin(
    level: RLevel,
    copies: &[Vec<Element<Value>>],
) -> (Tdb<Value>, lmerge::core::MergeStats) {
    let mut lm = new_for_level::<Value>(level, copies.len(), MergePolicy::default());
    let mut out = Vec::new();
    let longest = copies.iter().map(Vec::len).max().unwrap_or(0);
    for k in 0..longest {
        for (i, c) in copies.iter().enumerate() {
            if let Some(e) = c.get(k) {
                lm.push(StreamId(i as u32), e, &mut out);
            }
        }
    }
    (tdb_of(&out).expect("merge output well formed"), lm.stats())
}

/// R0: identical ordered copies interleaved — output = logical stream.
#[test]
fn r0_merges_ordered_copies() {
    let mut cfg = GenConfig::small(500, 1).with_disorder(0.0);
    cfg.min_gap_ms = 1; // R0 requires strictly increasing timestamps
    let r = generate(&cfg);
    let copies = vec![r.elements.clone(), r.elements.clone(), r.elements.clone()];
    let (tdb, stats) = merge_round_robin(RLevel::R0, &copies);
    assert_eq!(tdb, r.tdb());
    assert_eq!(stats.inserts_out, 500);
}

/// R1 and R2 over ordered copies agree with R0.
#[test]
fn r1_r2_match_r0_on_ordered_input() {
    let r = generate(&GenConfig::small(400, 2).with_disorder(0.0));
    let copies = vec![r.elements.clone(), r.elements.clone()];
    for level in [RLevel::R1, RLevel::R2] {
        let (tdb, _) = merge_round_robin(level, &copies);
        assert_eq!(tdb, r.tdb(), "{level} diverged on ordered input");
    }
}

/// R3+, LMR3−, and R4 over fully divergent copies all reproduce the
/// reference TDB.
#[test]
fn general_variants_agree_on_divergent_copies() {
    for seed in 0..3u64 {
        let r = generate(&GenConfig::small(300, 10 + seed).with_disorder(0.3));
        let div = DivergenceConfig::default();
        let copies: Vec<_> = (0..3).map(|i| diverge(&r.elements, &div, i)).collect();
        for level in [RLevel::R3, RLevel::R4] {
            let (tdb, stats) = merge_round_robin(level, &copies);
            assert_eq!(tdb, r.tdb(), "{level} diverged (seed {seed})");
            assert!(
                stats.inserts_out + stats.adjusts_out <= stats.inserts_in,
                "{level}: Theorem 1 bound violated (seed {seed})"
            );
        }
        // The naive baseline agrees too.
        let mut lm = lmerge::core::LMergeR3Naive::<Value>::new(3);
        let mut out = Vec::new();
        let longest = copies.iter().map(Vec::len).max().unwrap();
        for k in 0..longest {
            for (i, c) in copies.iter().enumerate() {
                if let Some(e) = c.get(k) {
                    lm.push(StreamId(i as u32), e, &mut out);
                }
            }
        }
        assert_eq!(
            tdb_of(&out).unwrap(),
            r.tdb(),
            "LMR3- diverged (seed {seed})"
        );
    }
}

/// The merge result does not depend on the interleaving of inputs.
#[test]
fn interleaving_independence() {
    let r = generate(&GenConfig::small(200, 42).with_disorder(0.2));
    let div = DivergenceConfig::default();
    let copies: Vec<_> = (0..2).map(|i| diverge(&r.elements, &div, i)).collect();

    // Round-robin.
    let (rr, _) = merge_round_robin(RLevel::R3, &copies);
    // Sequential: all of copy 0 first, then all of copy 1.
    let mut lm = new_for_level::<Value>(RLevel::R3, 2, MergePolicy::default());
    let mut out = Vec::new();
    for e in &copies[0] {
        lm.push(StreamId(0), e, &mut out);
    }
    for e in &copies[1] {
        lm.push(StreamId(1), e, &mut out);
    }
    let seq = tdb_of(&out).unwrap();
    assert_eq!(rr, seq);
    assert_eq!(rr, r.tdb());
}

/// Single-input LMerge is the identity on logical content.
#[test]
fn single_input_is_logical_identity() {
    let r = generate(&GenConfig::small(300, 5).with_disorder(0.4));
    for level in [RLevel::R3, RLevel::R4] {
        let (tdb, _) = merge_round_robin(level, std::slice::from_ref(&r.elements));
        assert_eq!(tdb, r.tdb());
    }
}

/// Feeding ten divergent copies costs no duplicates.
#[test]
fn many_copies_no_duplicates() {
    let r = generate(&GenConfig::small(200, 77).with_disorder(0.25));
    let div = DivergenceConfig::default();
    let copies: Vec<_> = (0..10).map(|i| diverge(&r.elements, &div, i)).collect();
    let (tdb, _) = merge_round_robin(RLevel::R3, &copies);
    assert_eq!(tdb, r.tdb());
}

/// R3's stable point follows the maximum across inputs (the paper's
/// recommended policy), never exceeding it (condition C1).
#[test]
fn stable_tracks_maximum_input() {
    let mut lm = new_for_level::<Value>(RLevel::R3, 2, MergePolicy::default());
    let mut out = Vec::new();
    lm.push(
        StreamId(0),
        &Element::insert(Value::bare(1), 5, 9),
        &mut out,
    );
    lm.push(StreamId(0), &Element::stable(20), &mut out);
    assert_eq!(lm.max_stable(), Time(20));
    lm.push(StreamId(1), &Element::stable(10), &mut out);
    assert_eq!(lm.max_stable(), Time(20), "lagging stable is absorbed");
    lm.push(StreamId(1), &Element::stable(30), &mut out);
    assert_eq!(lm.max_stable(), Time(30));
}
