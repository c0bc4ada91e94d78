//! R4 over genuine multiset TDBs, and hierarchical LMerge composition
//! ("we can also achieve resiliency on a query-fragment level by deploying
//! a hierarchy of LMerge operators", paper Section II-1).

use lmerge::core::{LMergeR3, LMergeR4, LogicalMerge};
use lmerge::gen::{diverge, generate, DivergenceConfig, GenConfig};
use lmerge::temporal::reconstitute::tdb_of;
use lmerge::temporal::{Element, StreamId, Value};
use rand::prelude::*;

fn merge<L: LogicalMerge<Value>>(
    lm: &mut L,
    copies: &[Vec<Element<Value>>],
) -> Vec<Element<Value>> {
    let mut out = Vec::new();
    let longest = copies.iter().map(Vec::len).max().unwrap_or(0);
    for k in 0..longest {
        for (i, c) in copies.iter().enumerate() {
            if let Some(e) = c.get(k) {
                lm.push(StreamId(i as u32), e, &mut out);
            }
        }
    }
    out
}

/// R4 reproduces a multiset TDB (duplicate events) from divergent copies.
#[test]
fn r4_merges_duplicate_laden_streams() {
    let mut cfg = GenConfig::small(400, 61);
    cfg.duplicate_prob = 0.25;
    let r = generate(&cfg);
    let div = DivergenceConfig::default();
    let copies: Vec<_> = (0..3).map(|i| diverge(&r.elements, &div, i)).collect();
    let mut lm: LMergeR4<Value> = LMergeR4::new(3);
    let out = merge(&mut lm, &copies);
    assert_eq!(tdb_of(&out).unwrap(), r.tdb(), "multiset content preserved");
    assert!(
        r.tdb().iter().any(|(_, _, c)| c > 1),
        "workload must actually contain duplicates"
    );
}

/// Hierarchical merging: LMerge output is itself a valid LMerge input, so a
/// tree of merges equals one flat merge.
#[test]
fn hierarchy_of_merges_equals_flat_merge() {
    let r = generate(&GenConfig::small(300, 62).with_disorder(0.3));
    let div = DivergenceConfig::default();
    let copies: Vec<_> = (0..4).map(|i| diverge(&r.elements, &div, i)).collect();

    // Flat: all four into one operator.
    let mut flat_lm: LMergeR3<Value> = LMergeR3::new(4);
    let flat = merge(&mut flat_lm, &copies);

    // Tree: (0,1) → left, (2,3) → right, then (left, right) → root.
    let mut left_lm: LMergeR3<Value> = LMergeR3::new(2);
    let left = merge(&mut left_lm, &copies[..2]);
    let mut right_lm: LMergeR3<Value> = LMergeR3::new(2);
    let right = merge(&mut right_lm, &copies[2..]);
    let mut root_lm: LMergeR3<Value> = LMergeR3::new(2);
    let root = merge(&mut root_lm, &[left, right]);

    assert_eq!(tdb_of(&flat).unwrap(), r.tdb());
    assert_eq!(tdb_of(&root).unwrap(), r.tdb(), "tree ≡ flat ≡ reference");
}

/// A three-level hierarchy with R4 at the root still converges.
#[test]
fn mixed_level_hierarchy() {
    let r = generate(&GenConfig::small(200, 63).with_disorder(0.2));
    let div = DivergenceConfig::default();
    let copies: Vec<_> = (0..4).map(|i| diverge(&r.elements, &div, i)).collect();
    let mut l1: LMergeR3<Value> = LMergeR3::new(2);
    let a = merge(&mut l1, &copies[..2]);
    let mut l2: LMergeR4<Value> = LMergeR4::new(2);
    let b = merge(&mut l2, &copies[2..]);
    let mut root: LMergeR4<Value> = LMergeR4::new(2);
    let out = merge(&mut root, &[a, b]);
    assert_eq!(tdb_of(&out).unwrap(), r.tdb());
}

/// Randomized: R4 over duplicate-laden divergent copies always equals the
/// reference multiset. (Seeded loop stands in for a property test; the
/// failing `seed`/knob combination prints in the panic message.)
#[test]
fn r4_multiset_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0x4d53_0001);
    for _ in 0..16 {
        let seed = rng.random_range(0u64..500);
        let dup = rng.random_range(0.0f64..0.4);
        let disorder = rng.random_range(0.0f64..0.4);
        let mut cfg = GenConfig::small(60, seed).with_disorder(disorder);
        cfg.duplicate_prob = dup;
        let r = generate(&cfg);
        let div = DivergenceConfig {
            seed: seed.wrapping_add(1),
            ..Default::default()
        };
        let copies: Vec<_> = (0..2).map(|i| diverge(&r.elements, &div, i)).collect();
        let mut lm: LMergeR4<Value> = LMergeR4::new(2);
        let out = merge(&mut lm, &copies);
        assert_eq!(
            tdb_of(&out).unwrap(),
            r.tdb(),
            "seed={seed} dup={dup:.3} disorder={disorder:.3}"
        );
    }
}

/// Randomized hierarchy: merge-of-merges is always equivalent to the
/// reference (the composability claim of Section II).
#[test]
fn hierarchy_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0x4d53_0002);
    for _ in 0..16 {
        let seed = rng.random_range(0u64..500);
        let disorder = rng.random_range(0.0f64..0.4);
        let r = generate(&GenConfig::small(50, seed).with_disorder(disorder));
        let div = DivergenceConfig {
            seed: seed.wrapping_add(9),
            ..Default::default()
        };
        let copies: Vec<_> = (0..4).map(|i| diverge(&r.elements, &div, i)).collect();
        let mut l: LMergeR3<Value> = LMergeR3::new(2);
        let a = merge(&mut l, &copies[..2]);
        let mut rg: LMergeR3<Value> = LMergeR3::new(2);
        let b = merge(&mut rg, &copies[2..]);
        let mut root: LMergeR3<Value> = LMergeR3::new(2);
        let out = merge(&mut root, &[a, b]);
        assert_eq!(
            tdb_of(&out).unwrap(),
            r.tdb(),
            "seed={seed} disorder={disorder:.3}"
        );
    }
}
